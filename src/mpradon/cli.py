"""Command-line front end.

Subcommands:

  analyze      decide boundedness for a problem spec file
  bump         construct a moment bump and report its moments
  kernel-check run cancellation and product-bound checks on a kernel file
  norm-growth  run an operator-norm growth experiment

Problem spec files are sectioned key=value text::

    [problem]
    family = translation_line
    p = s^3 + t^3 + s*t

    [scheme]
    e = 1 0 ; 0 1

    [experiment]
    case = know
    M = 0 1 2 3 4
    L = 20

Exit codes: 0 bounded/pass, 2 unbounded/fail-with-witness, 3 inconclusive,
1 input, usage or internal error (one ``error:`` line on stderr).  --help
and --version exit 0.  JSON reports are deterministic; the timestamp field
is suppressed by --no-timestamp.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

from . import __version__
from .criteria import (
    Outcome,
    Verdict,
    heisenberg_verdict,
    real_line_verdict,
    scalar_control_verdict,
)
from .dilations import ExponentScheme, check_truncations, is_pure
from .symbolic import (
    FAMILIES,
    HEISENBERG,
    GammaSpec,
    Polynomial,
    WExpansion,
    w_expansion,
    xhat_expansion,
)
from .symbolic.fields import field_text
from .symbolic.gamma import CASES

# Names the numeric commands use, by home module: bound by the command or on a first read
# from outside (PEP 562), so `analyze` never compiles those modules.  perfbench's trace points
# wrap them here; once those name the home modules, these become local imports.
_NUMERIC = {
    "bumps": ("MAX_MOMENT", "BumpCombination", "checked_moment", "moment_bump"),
    "harness": ("Grid1D", "default_experiment_atom", "growth_experiment"),
    "kernels": ("load_kernel_sequence", "sample_product_kernel_bounds", "verify_cancellation"),
}


def _bind(module: str) -> None:
    """Import a numeric module and bind its names here, keeping any bound before."""
    home = importlib.import_module(f".{module}", __package__)
    for name in _NUMERIC[module]:
        globals().setdefault(name, getattr(home, name))


def __getattr__(name: str):
    for module, names in _NUMERIC.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_BOUNDED = 0
EXIT_ERROR = 1
EXIT_UNBOUNDED = 2
EXIT_INCONCLUSIVE = 3

_OUTCOME_EXIT = {
    Outcome.BOUNDED: EXIT_BOUNDED,
    Outcome.UNBOUNDED: EXIT_UNBOUNDED,
    Outcome.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class SpecFileError(ValueError):
    """Problem spec file failed to parse."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A norm-growth experiment; its defaults are norm-growth's defaults."""

    case: str
    m_list: tuple[int, ...] = (0, 1, 2, 3, 4)
    level: int | None = None
    grid_n: int = 2048
    grid_xmin: float = -4.0
    grid_xmax: float = 4.0
    quad_order: int = 24
    bump_a: float = 0.5


@dataclass(frozen=True)
class ProblemSpecFile:
    gamma: GammaSpec
    experiment: ExperimentConfig | None


def _parse_int_list(text: str, check_ends) -> tuple[int, ...]:
    """Integers as 'lo..hi' (lo <= hi) or '0 2 4' (commas allowed); a range's two ends
    go through ``check_ends`` before the range is spelled out."""
    text = text.strip()
    if ".." in text:
        try:
            lo, hi = map(int, text.split(".."))
        except ValueError:
            raise ValueError(f"range {text!r} must read lo..hi with integer ends") from None
        if lo > hi:
            raise ValueError(f"range {text!r} is reversed: its low end {lo} exceeds its high end {hi}")
        check_ends((lo, hi))
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _parse_truncations(text: str) -> tuple[int, ...]:
    """Truncations M as '0..8' or '0 2 4', each in [0, MAX_TRUNCATION]."""
    m_list = _parse_int_list(text, check_truncations)
    check_truncations(m_list)
    return m_list


def _check_exponent_range(ends: tuple[int, int]) -> None:
    if not all(1 <= e <= MAX_MOMENT for e in ends):
        raise ValueError(f"exponent range {ends[0]}..{ends[1]} must lie in [1, {MAX_MOMENT}]")


def _parse_alpha(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"alpha {text!r}: a derivative order is two nonnegative integers") from None


_PROBLEM_KEYS = {"family", "variables", *(k for f in FAMILIES.values() for k in f.keys)}
# [experiment] key (and norm-growth flag dest) -> (ExperimentConfig field, parser),
# in the order a bad value is reported
_EXPERIMENT_KEYS = {
    "case": ("case", str),
    "m": ("m_list", _parse_truncations),
    "l": ("level", int),
    "grid_n": ("grid_n", int),
    "grid_xmin": ("grid_xmin", float),
    "grid_xmax": ("grid_xmax", float),
    "quad_order": ("quad_order", int),
    "bump_a": ("bump_a", float),
}


def _split_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name in sections:
                raise SpecFileError(f"line {lineno}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise SpecFileError(f"line {lineno}: key outside of any section")
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecFileError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip().lower()
        if key in current:
            raise SpecFileError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value.strip()
    return sections


def _default_variables(n: int) -> tuple[str, ...]:
    return ("s", "t") if n == 2 else tuple(f"s{i+1}" for i in range(n))


def parse_problem_spec(text: str) -> ProblemSpecFile:
    sections = _split_sections(text)
    unknown = set(sections) - {"problem", "scheme", "experiment"}
    if unknown:
        raise SpecFileError(f"unknown sections: {sorted(unknown)}")
    if "problem" not in sections:
        raise SpecFileError("missing [problem] section")
    problem = sections["problem"]
    bad = set(problem) - _PROBLEM_KEYS
    if bad:
        raise SpecFileError(f"unknown [problem] keys: {sorted(bad)}")
    family = problem.get("family", "")
    scheme = None
    if "scheme" in sections:
        bad = set(sections["scheme"]) - {"e"}
        if bad:
            raise SpecFileError(f"unknown [scheme] keys: {sorted(bad)}")
        if "e" not in sections["scheme"]:
            raise SpecFileError("[scheme] section needs the key e")
        try:
            scheme = ExponentScheme.from_rows(
                [row.split() for row in sections["scheme"]["e"].split(";")]
            )
        except (ValueError, TypeError) as exc:
            raise SpecFileError(f"bad scheme: {exc}") from exc

    if family not in FAMILIES:
        raise SpecFileError(
            f"unsupported family {family!r}: expected {' or '.join(map(repr, FAMILIES))}"
        )
    keys = FAMILIES[family].keys
    missing = [k for k in keys if k not in problem]
    if missing:
        needs = f"the key {keys[0]}" if len(keys) == 1 else f"keys {missing}"
        raise SpecFileError(f"{family} needs {needs}")
    n = scheme.n_t if scheme else 2
    variables = tuple(problem["variables"].split()) if "variables" in problem else _default_variables(n)
    try:
        polys = tuple(Polynomial.parse(problem[k], variables) for k in keys)
        gamma = GammaSpec(family, scheme or ExponentScheme.product(polys[0].nvars), polys)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc

    experiment = None
    if "experiment" in sections:
        exp = sections["experiment"]
        bad = set(exp) - _EXPERIMENT_KEYS.keys()
        if bad:
            raise SpecFileError(f"unknown [experiment] keys: {sorted(bad)}")
        if "case" not in exp or exp["case"] not in CASES:
            raise SpecFileError(f"[experiment] needs case in {CASES}")
        try:
            experiment = _experiment_config(exp)
        except ValueError as exc:
            raise SpecFileError(f"bad [experiment] value: {exc}") from exc
    return ProblemSpecFile(gamma, experiment)


def _experiment_config(values: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """``base`` with the given [experiment] keys' values; an absent key keeps its
    value in ``base``, or its default when there is no ``base``."""
    fields = {field: parse(values[key]) for key, (field, parse) in _EXPERIMENT_KEYS.items() if key in values}
    return replace(base, **fields) if base else ExperimentConfig(**fields)


# -- report assembly -----------------------------------------------------


def _expansion_payload(exp: WExpansion) -> list[dict]:
    return [
        {
            "alpha": list(alpha),
            "degree": [str(v) for v in d],
            "pure": is_pure(d),
            "field": field_text(exp.terms[alpha], exp.basis),
        }
        for alpha, d in exp.degrees.items()
    ]


def _gamma_input_echo(gamma: GammaSpec) -> dict:
    echo: dict = {
        "family": gamma.family,
        "scheme_rows": [" ".join(str(v) for v in row) for row in gamma.scheme.rows],
        "variables": list(gamma.variables),
    }
    echo.update(zip(FAMILIES[gamma.family].keys, map(str, gamma.polynomials)))
    return echo


def analyze_gamma(gamma: GammaSpec) -> Verdict:
    """Route to the family-appropriate decision procedure."""
    if gamma.family == HEISENBERG:
        return heisenberg_verdict(gamma)
    if gamma.scheme.rows == ((1, 0), (0, 1)):  # the product scheme in two parameters
        return real_line_verdict(*gamma.polynomials)
    return scalar_control_verdict(w_expansion(gamma))


def analyze_report(gamma: GammaSpec, timestamp: bool = True) -> dict:
    """The analyze report; its "verdict" is the ``Verdict`` itself, which
    ``_json_value`` renders for ``json.dumps``."""
    verdict = analyze_gamma(gamma)
    w = w_expansion(gamma)
    xhat = _expansion_payload(xhat_expansion(gamma))
    report = {
        "tool": {"name": "mpradon", "version": __version__},
        "input": _gamma_input_echo(gamma),
        "verdict": verdict,
        "w_expansion": _expansion_payload(w),
        "xhat_expansion": xhat,
        "pure": [list(t["alpha"]) for t in xhat if t["pure"]],
        "nonpure": [list(t["alpha"]) for t in xhat if not t["pure"]],
    }
    if timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return report


def _json_value(o):
    """``json.dumps``'s hook: a Fraction as 'p/q', anything else (the verdict
    dataclasses, which hold only their fields) as its attributes."""
    return str(o) if isinstance(o, Fraction) else vars(o)


def _verdict_text(report: dict) -> str:
    lines = [f"mpradon {report['tool']['version']} analyze"]
    echo = report["input"]
    lines.append(f"problem: {echo['family']}  {FAMILIES[echo['family']].text.format(**echo)}")
    lines.append(f"scheme rows: {'; '.join(echo['scheme_rows'])}")
    v: Verdict = report["verdict"]
    lines.append(f"verdict: {v.outcome.value.upper()}")
    if v.witness:
        w = v.witness
        lines.append(f"  witness: alpha0 = {w.alpha0}, line normal = ({', '.join(map(str, w.normal))})")
        lines.append(f"  {w.reason}")
    for cert in v.certificates:
        lines.append(f"  certificate for alpha0 = {cert.alpha0}:")
        for s in cert.sectors:
            combo = " + ".join(
                f"({c})*{m}" for c, m in zip(s.coefficients, s.members)
            ) or "(empty: pure index trivially controlled)"
            lines.append(f"    normal ({', '.join(map(str, s.normal))}): target = {combo}")
    if v.diagnostics:
        lines.append(f"  note: {v.diagnostics}")
    for name in ("W", "Xhat"):
        lines.append(f"{name} expansion:")
        for t in report[f"{name.lower()}_expansion"]:
            tag = "pure" if t["pure"] else "nonpure"
            lines.append(
                f"  t^{tuple(t['alpha'])} * ({t['field']})   deg = ({', '.join(t['degree'])}) [{tag}]"
            )
    return "\n".join(lines) + "\n"


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# -- subcommands ----------------------------------------------------------


def cmd_analyze(args) -> int:
    with open(args.spec) as fh:
        spec = parse_problem_spec(fh.read())
    report = analyze_report(spec.gamma, timestamp=not args.no_timestamp)
    if args.format == "json":
        _emit(json.dumps(report, sort_keys=True, default=_json_value) + "\n", args.out)
    else:
        _emit(_verdict_text(report), args.out)
    return _OUTCOME_EXIT[report["verdict"].outcome]


def cmd_bump(args) -> int:
    _bind("bumps")
    result = moment_bump(args.a, args.a1, _parse_int_list(args.excluded, _check_exponent_range))
    # each moment m_e is judged against S_e, the t^e moment with every coefficient
    # made positive, so the verdict does not depend on the unit of length
    magnitude = BumpCombination(tuple((abs(c), x, r) for c, x, r in result.bump.atoms))
    ratio = {e: abs(m) / checked_moment(magnitude, e, args.a) for e, m in result.moments.items()}
    ok = (
        ratio[0] < 1e-10
        and all(ratio[e] < 1e-9 for e in result.excluded_exponents)
        and ratio[result.target_exponent] > 1e-6
    )
    report = {
        "tool": {"name": "mpradon", "version": __version__},
        "support": [0.0, args.a],
        "target_exponent": result.target_exponent,
        "excluded_exponents": list(result.excluded_exponents),
        "atoms": [[c, x, r] for c, x, r in result.bump.atoms],
        "moments": {str(k): v for k, v in sorted(result.moments.items())},
        "determinant": result.determinant,
        "determinant_closed_form": result.determinant_closed_form,
        "passed": ok,
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps({"atoms": report["atoms"]}, sort_keys=True) + "\n")
    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        lines = [f"moment bump on (0, {args.a}) with {len(result.bump.atoms)} atoms"]
        for c, x, r in result.bump.atoms:
            lines.append(f"  {c!r} * psi_(x={x!r}, r={r!r})")
        for k, v in sorted(result.moments.items()):
            lines.append(f"  moment {k}: {v:.3e}")
        lines.append(
            f"  determinant {result.determinant:.6e} vs closed form {result.determinant_closed_form:.6e}"
        )
        lines.append(f"  thresholds {'PASS' if ok else 'FAIL'}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_BOUNDED if ok else EXIT_UNBOUNDED


def cmd_kernel_check(args) -> int:
    _bind("kernels")
    if args.alphas and args.M is None:
        raise ValueError("kernel-check: --alphas needs --M, the depth the product bounds are sampled to")
    if args.M is not None and args.M < 0:
        raise ValueError(f"kernel-check: --M must be a nonnegative depth, got {args.M}")
    seq = load_kernel_sequence(args.kernel)
    report = verify_cancellation(seq)
    payload: dict = {
        "tool": {"name": "mpradon", "version": __version__},
        "cancellation": {
            "max_abs_slice_integral": report.max_abs,
            "tolerance": report.tolerance,
            "passed": report.passed,
            "slices": len(report.checks),
            "exact_zero_slices": report.exact_zero_slices,
            "failures": [
                {"k": list(c.index), "mu": c.mu, "max_abs": c.max_abs} for c in report.failing()
            ],
            "support_violations": [
                {"k": list(k), "radius": r} for k, r in report.support_violations
            ],
        },
    }
    if args.M is not None:
        truncations = sorted({0, args.M // 2, args.M})
        alphas = [_parse_alpha(a) for a in args.alphas.split(";")] if args.alphas else [(0, 0)]
        estimates = sample_product_kernel_bounds(seq, truncations, alphas)
        payload["product_bounds"] = [
            {"alpha": list(e.alpha), "M": e.truncation, "constant": e.constant} for e in estimates
        ]
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        lines = [
            f"cancellation: {'PASS' if report.passed else 'FAIL'} "
            f"(max slice integral {report.max_abs:.3e}, tol {report.tolerance:.1e}) "
            f"({report.exact_zero_slices} of {len(report.checks)} slices exact zero)"
        ]
        for c in report.failing():
            lines.append(f"  violated at k={c.index}, mu={c.mu}: {c.max_abs:.3e}")
        for k, r in report.support_violations:
            lines.append(f"  support violated at k={k}: radius {r}")
        for e in payload.get("product_bounds", []):
            lines.append(f"  C_{tuple(e['alpha'])}(M={e['M']}) = {e['constant']:.6e}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_BOUNDED if report.passed else EXIT_UNBOUNDED


def cmd_norm_growth(args) -> int:
    _bind("harness")
    # the spec's [experiment] config, each value overridden by the flag given for it
    flags = {k: v for k, v in vars(args).items() if k in _EXPERIMENT_KEYS and v is not None}
    spec_cfg = None
    if args.spec:
        with open(args.spec) as fh:
            spec_cfg = parse_problem_spec(fh.read()).experiment
        if spec_cfg is None:
            raise SpecFileError(f"{args.spec} has no [experiment] section")
    elif "case" not in flags:
        raise SpecFileError("norm-growth needs --case (or --spec with [experiment])")
    cfg = _experiment_config(flags, spec_cfg)
    grid = Grid1D(cfg.grid_xmin, cfg.grid_xmax, cfg.grid_n)
    table = growth_experiment(
        cfg.case,
        cfg.m_list,
        level=cfg.level,
        grid=grid,
        atom=default_experiment_atom(cfg.bump_a),
        quad_order=cfg.quad_order,
    )
    if args.format == "json":
        _emit(table.to_json() + "\n", args.out)
    elif args.format == "csv":
        _emit(table.to_csv(), args.out)
    else:
        lines = [f"case {table.case} (grid n={grid.n}, window [{grid.xmin}, {grid.xmax}])"]
        for r in table.rows:
            lvl = "" if r.L is None else f" L={r.L}"
            flag = "" if r.converged else f" (not converged after {r.iterations} iterations)"
            lines.append(f"  M={r.M}{lvl}: norm={r.norm:.6e} ratio={r.ratio:.6f}{flag}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_BOUNDED


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, which reads as "unbounded" here
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the mpradon command line.

    A usage error raises ValueError (``main`` reports it as one ``error:``
    line and exit code 1); --help and --version exit 0.
    """
    parser = _ArgumentParser(
        prog="mpradon",
        description="boundedness criteria and numerics for multi-parameter singular Radon transforms",
    )
    parser.add_argument("--version", action="version", version=f"mpradon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="decide boundedness for a problem spec file")
    p_an.add_argument("--spec", required=True, help="path to the problem spec file")
    p_an.add_argument("--format", choices=("text", "json"), default="text")
    p_an.add_argument("--out", default=None)
    p_an.add_argument("--no-timestamp", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_bp = sub.add_parser("bump", help="construct a moment bump")
    p_bp.add_argument("--a", type=float, required=True, help="support length")
    p_bp.add_argument("--a1", type=int, required=True, help="nonvanishing moment exponent")
    p_bp.add_argument("--excluded", default="", help="comma/space separated vanishing exponents")
    p_bp.add_argument("--format", choices=("text", "json"), default="text")
    p_bp.add_argument("--out", default=None, help="write the bump atoms as JSON here")
    p_bp.set_defaults(func=cmd_bump)

    p_kc = sub.add_parser("kernel-check", help="verify a kernel sequence file")
    p_kc.add_argument("--kernel", required=True, help="path to the kernel sequence file")
    p_kc.add_argument("--M", type=int, default=None, help="max dyadic depth for bound sampling")
    p_kc.add_argument("--alphas", default="", help="derivative orders, e.g. '0,0;1,0'")
    p_kc.add_argument("--format", choices=("text", "json"), default="text")
    p_kc.set_defaults(func=cmd_kernel_check)

    # the experiment flags are [experiment] keys; one left out keeps ExperimentConfig's default
    p_ng = sub.add_parser("norm-growth", help="operator norm growth experiment")
    p_ng.add_argument("--case", choices=CASES, default=None)
    p_ng.add_argument("--spec", default=None, help="read the [experiment] block from a spec file; flags given override it")
    p_ng.add_argument("--M", dest="m", help="truncation list, e.g. '0..8' or '0 2 4'")
    p_ng.add_argument("--L", dest="l", type=int, help="scale parameter for the know case")
    p_ng.add_argument("--grid-n", dest="grid_n", type=int)
    p_ng.add_argument("--grid-xmin", dest="grid_xmin", type=float)
    p_ng.add_argument("--grid-xmax", dest="grid_xmax", type=float)
    p_ng.add_argument("--quad-order", dest="quad_order", type=int)
    p_ng.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_ng.add_argument("--out", default=None)
    p_ng.set_defaults(func=cmd_norm_growth)
    return parser


# the parser ``main`` uses, built on the first call and kept for the process
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
