"""One workload run, in a fresh single-threaded process.

Started by run.py, never imported.  The process pins BLAS/OpenMP threads to
1 in its own environment before numpy loads, imports ``mpradon.cli``,
writes the workload's inputs from the seed, loads the references, and then
runs passes over the workload's job list until the measuring time is used
up.  Every job is one ``mpradon.cli.main(argv)`` call, in-process, with its
standard output captured; each pass's outputs are checked after the pass.

It prints one JSON line: its set-up time (from the parent's spawn time,
so interpreter start-up is included), the metrics, and the counts.
"""

from __future__ import annotations

import os

THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from inputs import Job  # noqa: E402
from run import SPANS_FILE  # noqa: E402


@dataclass
class Result:
    rc: int | None  # None when the call raised
    out: str
    err: str
    seconds: float


@dataclass
class Workload:
    jobs: list[Job]
    check: object  # (list[Result]) -> list[str | None]
    # per-layer metrics measured during set-up
    setup_counts: dict = field(default_factory=lambda: {"kernels.build.busy_s": 0.0, "kernels.build.calls": 0})


# -- set-up per workload -------------------------------------------------------


def setup_decide(seed: int, work: Path, refs: dict) -> Workload:
    pins = refs["decide_pins"]["outcomes"] if seed == refs["decide_pins"]["seed"] else None
    jobs = []
    for name, kind, text, expect in inputs.decide_specs(seed):
        path = work / name
        path.write_text(text)
        argv = ("analyze", "--spec", str(path), "--format", "json", "--no-timestamp")
        jobs.append(Job(name, kind, argv, expect))

    def check(results):
        return [checks.check_decide(j, r.rc, r.out, pins) for j, r in zip(jobs, results)]

    return Workload(jobs, check)


def setup_norm_growth(seed: int, work: Path, refs: dict) -> Workload:
    norms = refs["norms"]
    jobs = inputs.norm_jobs()

    def check(results):
        reasons = [checks.check_norm_table(j, r.rc, r.out, norms) for j, r in zip(jobs, results)]
        know = {
            dict(j.meta)["L"]: [row["ratio"] for row in json.loads(r.out)["rows"]]
            for j, r, why in zip(jobs, results, reasons)
            if j.kind == "know" and why is None
        }
        cross = checks.check_know_tables(know)
        if cross is not None:
            reasons = [why or (cross if j.kind == "know" else None) for j, why in zip(jobs, reasons)]
        return reasons

    return Workload(jobs, check)


def setup_kernels(seed: int, work: Path, refs: dict) -> Workload:
    from mpradon.kernels import save_kernel_sequence

    jobs, build_s = [], 0.0
    for name, kind, build, expect, extra in inputs.kernel_sequences(seed):
        path = work / name
        start = time.perf_counter()
        save_kernel_sequence(build(), path)
        build_s += time.perf_counter() - start
        jobs.append(Job(name, kind, ("kernel-check", "--kernel", str(path), *extra, "--format", "json"), expect))
    builds = len(jobs)
    jobs += inputs.bump_jobs(seed)

    def check(results):
        return [
            checks.check_bump(j, r.rc, r.out) if j.kind == "bump" else checks.check_kernel(j, r.rc, r.out)
            for j, r in zip(jobs, results)
        ]

    return Workload(jobs, check, {"kernels.build.busy_s": build_s, "kernels.build.calls": builds})


SETUP = {"decide": setup_decide, "norm-growth": setup_norm_growth, "kernels": setup_kernels}


# -- passes -------------------------------------------------------------------


def run_job(main, job: Job) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(job.argv))
    except (Exception, SystemExit) as exc:  # a job that raises is a failed job, not a failed run
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return Result(rc, out.getvalue(), err.getvalue(), seconds)


def run_pass(main, jobs: list[Job], tracer: tracing.Tracer | None) -> tuple[list[Result], float]:
    results = []
    start = time.perf_counter()
    if tracer is None:
        for job in jobs:
            results.append(run_job(main, job))
    else:
        tracer.install()
        try:
            for i, job in enumerate(jobs):
                with tracer.job_span(f"cli.{job.argv[0]}", i):
                    results.append(run_job(main, job))
        finally:
            tracer.restore()
    return results, time.perf_counter() - start


def failures(results: list[Result], reasons: list[str | None]) -> list[str | None]:
    """Per job: why it failed (raised, exited 1, or its output was rejected), or None."""
    out = []
    for r, why in zip(results, reasons):
        if r.rc is None:
            out.append(f"raised: {r.err.strip()[-200:]}")
        elif r.rc == 1:
            out.append(f"exit 1: {r.err.strip()[-200:]}")
        else:
            out.append(why)
    return out


def measure(wl: Workload, seconds: float, trace: bool, spans_path: Path) -> dict:
    from mpradon.cli import main

    untraced_walls, traced_walls, layer_rows = [], [], []
    latencies: list[list[float]] = [[] for _ in wl.jobs]  # per job, over the untraced passes
    attempted, failed, reasons_seen = 0, 0, []
    spans_out = []
    start = time.perf_counter()
    pass_times: list[float] = []
    checked: tuple[list, list] = ([], [])  # outputs of the last checked pass, and the verdicts on them
    n = 0
    while True:
        traced = trace and n % 2 == 1
        tracer = tracing.Tracer() if traced else None
        t_pass = time.perf_counter()
        results, wall = run_pass(main, wl.jobs, tracer)
        outputs = [(r.rc, r.out) for r in results]
        if outputs != checked[0]:  # byte-identical outputs get the same verdicts
            checked = (outputs, wl.check(results))
        why = failures(results, checked[1])
        pass_times.append(time.perf_counter() - t_pass)
        attempted += len(results)
        failed += sum(w is not None for w in why)
        reasons_seen += [f"{j.name}: {w}" for j, w in zip(wl.jobs, why) if w is not None][: 20 - len(reasons_seen)]
        if traced:
            traced_walls.append(wall)
            layer = tracing.aggregate(tracer.spans, wall - tracer.counter_s)
            layer["trace.missing_spans"] = len(tracer.missing)
            layer_rows.append(layer)
            spans_out.append((n, tracer))
        else:
            untraced_walls.append(wall)
            for samples, r in zip(latencies, results):
                samples.append(r.seconds)
        n += 1
        elapsed = time.perf_counter() - start
        if trace and not traced_walls:
            continue
        if elapsed + max(pass_times[-2:]) > seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": reasons_seen,
        "passes": {"untraced": untraced_walls, "traced": traced_walls},
        "job_seconds": {job.name: samples for job, samples in zip(wl.jobs, latencies)},
        "samples": {
            "wall_s": len(untraced_walls),
            "job_ms": sum(map(len, latencies)),
            "traced_passes": len(traced_walls),
            "jobs_per_pass": len(wl.jobs),
        },
    }
    if not trace:
        pooled = [x for samples in latencies for x in samples]
        record["metrics"] = {
            "wall_s": statistics.median(untraced_walls),
            "job_p50_ms": 1e3 * statistics.median(pooled),
            "job_p90_ms": 1e3 * statistics.quantiles(pooled, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
        metrics.update(wl.setup_counts)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
        record["metrics"] = metrics
        record["missing_spans"] = sorted({m for _, t in spans_out for m in t.missing})
        record["counter_s"] = [t.counter_s for _, t in spans_out]  # left out of the layer times
        with open(spans_path, "w") as fh:
            for pass_no, tracer in spans_out:
                for i, s in enumerate(tracer.spans):
                    fh.write(json.dumps({
                        "pass": pass_no, "id": i, "name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "job": s.job, "counts": s.counts, "excluded": s.excluded,
                    }) + "\n")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(SETUP), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0-ns", dest="t0_ns", type=int, required=True, help="parent's monotonic clock at spawn")
    parser.add_argument("--work", type=Path, required=True, help="directory for the generated inputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import mpradon.cli  # noqa: F401  (import time is set-up time)

    refs = json.loads((Path(__file__).parent / "refs.json").read_text())
    wl = SETUP[args.workload](args.seed, args.work, refs)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    record: dict = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy

        record.update(measure(wl, args.seconds, bool(args.trace), args.work / SPANS_FILE))
        record["env"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "thread_pinning": THREAD_PINNING,
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
