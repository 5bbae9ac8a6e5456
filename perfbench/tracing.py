"""Spans around the layers' public functions, recorded from outside.

A traced pass runs the same ``mpradon.cli.main(argv)`` jobs as an untraced
one.  For its duration, each public function listed in ``TRACE_POINTS`` is
replaced, at the module attribute its caller looks it up through, by a
wrapper that records one span per call; the originals are put back when the
pass ends.  No file of the package changes.  A listed function that no
longer exists is recorded as missing instead of failing the run.

Spans are held in memory (name, start, end, parent, job, counts) and written
out when the run ends.  Counts come from each call's return value, or, where
the return value does not carry them, are computed from its arguments; the
metric names say which (see README.md).  A counter runs after its span has
ended but while the enclosing spans are open, so its time is recorded as
``excluded`` on each of them and left out of their durations: the layer
times measure the program, not the counting.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    counts: dict = field(default_factory=dict)
    excluded: float = 0.0  # counter time spent while this span was open


# -- counters: (args, kwargs, result) -> {count name: value} -----------------


def _expand_terms(args, kwargs, result):
    return {"terms": len(result.terms)}


def _closure_counts(args, kwargs, result):
    return {"size": len(result.closure), "distinct_degrees": len({e.degree for e in result.closure})}


def _sectors_tested(args, kwargs, result):
    from mpradon.criteria import Witness, sector_normals

    ok, payload = result
    if not isinstance(payload, Witness):
        return {"tested": len(payload.sectors)}
    # an unbounded sweep stops at the witness sector
    power_sets = args[2]
    diffs = [tuple(x - y for x, y in zip(e.degree, payload.degree)) for e in power_sets.closure]
    return {"tested": sector_normals(diffs).index(payload.normal) + 1}


def _scalar_pure_terms(args, kwargs, result):
    from mpradon.dilations import degree, is_pure

    w = args[0]
    scheme = (args[1] if len(args) > 1 else None) or w.scheme
    return {"pure_terms": sum(1 for a in w.support() if is_pure(degree(a, scheme)))}


def _build_counts(args, kwargs, result):
    return {"groups": len(result.groups), "taps": sum(g.taps.size for g in result.groups)}


def _norm_counts(args, kwargs, result):
    return {"iterations": result.iterations, "unconverged": int(not result.converged)}


def _bump_constraints(args, kwargs, result):
    return {"constraints": len(result.moments)}


def _io_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _cancel_counts(args, kwargs, result):
    """Slice checks from the report; inner integrals computed from the input
    (atoms x inner axes per slice), and how many of those are distinct."""
    from mpradon.dilations import dilation_factors

    seq = args[0]
    computed, distinct = 0, set()
    for check in result.checks:
        inner = seq.scheme.slice_coordinates(check.mu)
        for sa in seq.entries[check.index].atoms:
            factors = dilation_factors(sa.delta, seq.scheme)
            for i in inner:
                computed += 1
                distinct.add((sa.atom.factors[i].atoms, factors[i]))
    return {"slice_checks": len(result.checks), "inner_integrals": computed, "distinct_integrals": len(distinct)}


def _bound_evaluations(args, kwargs, result):
    """Entry-derivative evaluations: entries with |k|_1 <= M times samples."""
    seq = args[0]
    samples = kwargs.get("samples", args[3] if len(args) > 3 else None)
    n_samples = 4 * 24 * 24 if samples is None else len(samples)
    return {"evaluations": sum(sum(1 for k in seq.entries if sum(k) <= e.truncation) for e in result) * n_samples}


# (module, attribute looked up by the caller, span name, counter)
TRACE_POINTS = (
    ("mpradon.cli", "parse_problem_spec", "cli.parse_spec", None),
    ("mpradon.cli", "analyze_report", "cli.report", None),
    ("mpradon.cli", "analyze_gamma", "criteria.verdict", None),
    ("mpradon.cli", "w_expansion", "symbolic.expand", _expand_terms),
    ("mpradon.cli", "xhat_expansion", "symbolic.expand", _expand_terms),
    ("mpradon.criteria", "xhat_expansion", "symbolic.expand", _expand_terms),
    ("mpradon.cli", "heisenberg_verdict", "criteria.heisenberg", None),
    ("mpradon.cli", "real_line_verdict", "criteria.newton", None),
    ("mpradon.cli", "scalar_control_verdict", "criteria.scalar", _scalar_pure_terms),
    ("mpradon.criteria", "pure_closure_heisenberg", "criteria.closure", _closure_counts),
    ("mpradon.criteria", "supporting_line_condition", "criteria.sector", _sectors_tested),
    ("mpradon.cli", "growth_experiment", "harness.table", None),
    ("mpradon.harness", "build_operator", "harness.build", _build_counts),
    ("mpradon.harness", "operator_norm", "harness.norm", _norm_counts),
    ("mpradon.cli", "moment_bump", "bumps.moment_bump", _bump_constraints),
    ("mpradon.harness", "moment_bump", "bumps.moment_bump", _bump_constraints),
    ("mpradon.cli", "load_kernel_sequence", "kernels.io", _io_bytes),
    ("mpradon.cli", "verify_cancellation", "kernels.cancel", _cancel_counts),
    ("mpradon.kernels", "integrate_adaptive", "quadrature.adaptive", None),
    ("mpradon.cli", "sample_product_kernel_bounds", "kernels.bounds", _bound_evaluations),
)


class Tracer:
    """Collects spans for one traced pass; install() and restore() bracket it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.job = -1
        self.counter_s = 0.0  # time spent in counters over the pass
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else None, self.job))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx].start, spans[idx].end = start, end
            if counter is not None:
                c0 = time.perf_counter()
                spans[idx].counts = counter(args, kwargs, result)
                spent = time.perf_counter() - c0
                self.counter_s += spent
                for open_idx in stack:
                    spans[open_idx].excluded += spent
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TRACE_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def job_span(self, name: str, job: int):
        """The top-level span of one job; layer spans nest under it."""
        self.job = job
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, None, job))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()


# -- aggregation ---------------------------------------------------------------

# spans that get a busy_s / calls metric of their own
STAGES = (
    "cli.parse_spec", "cli.report", "symbolic.expand", "criteria.closure", "criteria.sector",
    "criteria.scalar", "criteria.newton", "harness.build", "harness.norm", "harness.table",
    "bumps.moment_bump", "kernels.io", "kernels.cancel", "kernels.bounds",
)
LAYERS = ("cli", "symbolic", "criteria", "harness", "bumps", "kernels", "quadrature")
# counters summed over a pass, and ratios of two such sums
COUNTS = (
    "symbolic.expand.terms", "criteria.closure.size", "criteria.sector.tested", "criteria.scalar.pure_terms",
    "harness.build.groups", "harness.build.taps", "harness.norm.iterations", "harness.norm.unconverged",
    "bumps.moment_bump.constraints", "kernels.io.bytes", "kernels.cancel.slice_checks",
    "kernels.cancel.inner_integrals", "kernels.bounds.evaluations",
)
RATIOS = {
    "criteria.closure.distinct_degree_ratio": ("criteria.closure.distinct_degrees", "criteria.closure.size"),
    "kernels.cancel.distinct_integral_ratio": ("kernels.cancel.distinct_integrals", "kernels.cancel.inner_integrals"),
}


def aggregate(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-pass layer metrics from one traced pass's spans.

    ``wall`` is the pass time without the counters' time.  Span durations
    leave out the counter time spent while they were open.

    A stage's busy_s is the time inside its calls, with two exceptions:
    cli.report subtracts the verdict it routes to (so it keeps the
    expansions it recomputes) and harness.table subtracts its builds and
    norms.  A layer's self_s is its spans' time minus their child spans',
    so the layers' self times add up to the traced jobs' time.
    """
    durations = [s.end - s.start - s.excluded for s in spans]
    child_time = [0.0] * len(spans)
    verdict_time = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s.parent is not None:
            child_time[s.parent] += d
            if s.name == "criteria.verdict":
                verdict_time[s.parent] += d
    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"{stage}.busy_s"] = 0.0
        out[f"{stage}.calls"] = 0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    counts: dict[str, float] = {}
    top = 0.0
    for i, s in enumerate(spans):
        self_time = durations[i] - child_time[i]
        out[f"{s.name.split('.')[0]}.self_s"] += self_time
        if s.parent is None:
            top += durations[i]
        if s.name in STAGES:
            busy = durations[i]
            if s.name == "cli.report":
                busy -= verdict_time[i]
            elif s.name == "harness.table":
                busy = self_time
            out[f"{s.name}.busy_s"] += busy
            out[f"{s.name}.calls"] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    for key, (num, den) in RATIOS.items():
        out[key] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    out["quadrature.adaptive.calls"] = sum(1 for s in spans if s.name == "quadrature.adaptive")
    out["trace.top_level_coverage"] = top / wall
    return out
