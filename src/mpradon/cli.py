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
1 input or internal error.  JSON reports are deterministic; the timestamp
field is suppressed by --no-timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .criteria import (
    ControlCertificate,
    Outcome,
    Verdict,
    Witness,
    heisenberg_verdict,
    real_line_verdict,
    scalar_control_verdict,
)
from .dilations import ExponentScheme, is_pure
from .kernels import load_kernel_sequence, sample_product_kernel_bounds, verify_cancellation
from .harness import CASES, Grid1D, growth_experiment
from .bumps import TensorBump, moment_bump
from .symbolic import (
    HEISENBERG,
    TRANSLATION_LINE,
    GammaSpec,
    Polynomial,
    WExpansion,
    w_expansion,
    xhat_expansion,
)

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
    case: str
    m_list: tuple[int, ...]
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


_PROBLEM_KEYS = {"family", "p", "p1", "p2", "p3", "variables"}
_EXPERIMENT_KEYS = {"case", "m", "l", "grid_n", "grid_xmin", "grid_xmax", "quad_order", "bump_a"}


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

    if family == TRANSLATION_LINE:
        if "p" not in problem:
            raise SpecFileError("translation_line needs the key p")
        n = scheme.n_t if scheme else 2
        variables = tuple(problem["variables"].split()) if "variables" in problem else _default_variables(n)
        try:
            p = Polynomial.parse(problem["p"], variables)
            gamma = GammaSpec.translation_line(p, scheme)
        except ValueError as exc:
            raise SpecFileError(str(exc)) from exc
    elif family == HEISENBERG:
        missing = {"p1", "p2", "p3"} - set(problem)
        if missing:
            raise SpecFileError(f"heisenberg needs keys {sorted(missing)}")
        n = scheme.n_t if scheme else 2
        variables = tuple(problem["variables"].split()) if "variables" in problem else _default_variables(n)
        try:
            polys = [Polynomial.parse(problem[k], variables) for k in ("p1", "p2", "p3")]
            gamma = GammaSpec.heisenberg(*polys, scheme=scheme)
        except ValueError as exc:
            raise SpecFileError(str(exc)) from exc
    else:
        raise SpecFileError(
            f"unsupported family {family!r}: expected {TRANSLATION_LINE!r} or {HEISENBERG!r}"
        )

    experiment = None
    if "experiment" in sections:
        exp = sections["experiment"]
        bad = set(exp) - _EXPERIMENT_KEYS
        if bad:
            raise SpecFileError(f"unknown [experiment] keys: {sorted(bad)}")
        if "case" not in exp or exp["case"] not in CASES:
            raise SpecFileError(f"[experiment] needs case in {CASES}")
        try:
            m_list = tuple(_parse_int_list(exp.get("m", "0 1 2 3 4")))
            experiment = ExperimentConfig(
                case=exp["case"],
                m_list=m_list,
                level=int(exp["l"]) if "l" in exp else None,
                grid_n=int(exp.get("grid_n", 2048)),
                grid_xmin=float(exp.get("grid_xmin", -4.0)),
                grid_xmax=float(exp.get("grid_xmax", 4.0)),
                quad_order=int(exp.get("quad_order", 24)),
                bump_a=float(exp.get("bump_a", 0.5)),
            )
        except ValueError as exc:
            raise SpecFileError(f"bad [experiment] value: {exc}") from exc
    return ProblemSpecFile(gamma, experiment)


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.replace(",", " ").split()]


# -- report assembly -----------------------------------------------------


def _frac(x: Fraction) -> str:
    return str(x)


def _expansion_payload(exp: WExpansion) -> list[dict]:
    out = []
    for alpha in exp.support():
        d = exp.degree_of(alpha)
        out.append(
            {
                "alpha": list(alpha),
                "degree": [_frac(v) for v in d],
                "pure": is_pure(d),
                "field": str(exp.terms[alpha]),
            }
        )
    return out


def _witness_payload(w: Witness) -> dict:
    return {
        "alpha0": None if w.alpha0 is None else list(w.alpha0),
        "degree": [_frac(v) for v in w.degree],
        "normal": [_frac(v) for v in w.normal],
        "reason": w.reason,
    }


def _certificate_payload(cert: ControlCertificate) -> dict:
    return {
        "alpha0": None if cert.alpha0 is None else list(cert.alpha0),
        "degree": [_frac(v) for v in cert.degree],
        "sectors": [
            {
                "normal": [_frac(v) for v in s.normal],
                "members": list(s.members),
                "coefficients": [_frac(v) for v in s.coefficients],
            }
            for s in cert.sectors
        ],
    }


def _verdict_payload(v: Verdict) -> dict:
    return {
        "outcome": v.outcome.value,
        "witness": None if v.witness is None else _witness_payload(v.witness),
        "certificates": [_certificate_payload(c) for c in v.certificates],
        "diagnostics": v.diagnostics,
    }


def _gamma_input_echo(gamma: GammaSpec) -> dict:
    echo: dict = {
        "family": gamma.family,
        "scheme_rows": [" ".join(_frac(v) for v in row) for row in gamma.scheme.rows],
        "variables": list(gamma.variables),
    }
    if gamma.family == TRANSLATION_LINE:
        echo["p"] = str(gamma.p)
    else:
        echo["p1"], echo["p2"], echo["p3"] = (str(q) for q in gamma.exponents)
    return echo


def gamma_from_input_echo(echo: dict) -> GammaSpec:
    """Rebuild the GammaSpec from a report's input block (round-trip check)."""
    scheme = ExponentScheme.from_rows([row.split() for row in echo["scheme_rows"]])
    variables = tuple(echo["variables"])
    if echo["family"] == TRANSLATION_LINE:
        return GammaSpec.translation_line(Polynomial.parse(echo["p"], variables), scheme)
    return GammaSpec.heisenberg(
        *(Polynomial.parse(echo[k], variables) for k in ("p1", "p2", "p3")), scheme=scheme
    )


def analyze_gamma(gamma: GammaSpec) -> Verdict:
    """Route to the family-appropriate decision procedure."""
    if gamma.family == HEISENBERG:
        return heisenberg_verdict(gamma)
    if gamma.scheme == ExponentScheme.product(2):
        return real_line_verdict(gamma.p)
    return scalar_control_verdict(w_expansion(gamma), gamma.scheme)


def analyze_report(gamma: GammaSpec, timestamp: bool = True) -> dict:
    verdict = analyze_gamma(gamma)
    w = w_expansion(gamma)
    xhat = _expansion_payload(xhat_expansion(gamma))
    report = {
        "tool": {"name": "mpradon", "version": __version__},
        "input": _gamma_input_echo(gamma),
        "verdict": _verdict_payload(verdict),
        "w_expansion": _expansion_payload(w),
        "xhat_expansion": xhat,
        "pure": [list(t["alpha"]) for t in xhat if t["pure"]],
        "nonpure": [list(t["alpha"]) for t in xhat if not t["pure"]],
    }
    if timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return report


def _verdict_text(report: dict) -> str:
    lines = [f"mpradon {report['tool']['version']} analyze"]
    echo = report["input"]
    if "p" in echo:
        lines.append(f"problem: {echo['family']}  gamma_t(x) = x - ({echo['p']})")
    else:
        lines.append(
            f"problem: {echo['family']}  exp({echo['p1']} X + {echo['p2']} Y + {echo['p3']} T)"
        )
    lines.append(f"scheme rows: {'; '.join(echo['scheme_rows'])}")
    v = report["verdict"]
    lines.append(f"verdict: {v['outcome'].upper()}")
    if v["witness"]:
        w = v["witness"]
        lines.append(
            f"  witness: alpha0 = {tuple(w['alpha0'])}, line normal = ({', '.join(w['normal'])})"
        )
        lines.append(f"  {w['reason']}")
    for cert in v["certificates"]:
        lines.append(f"  certificate for alpha0 = {tuple(cert['alpha0'])}:")
        for s in cert["sectors"]:
            combo = " + ".join(
                f"({c})*{m}" for c, m in zip(s["coefficients"], s["members"])
            ) or "(empty: pure index trivially controlled)"
            lines.append(f"    normal ({', '.join(s['normal'])}): target = {combo}")
    if v["diagnostics"]:
        lines.append(f"  note: {v['diagnostics']}")
    lines.append("W expansion:")
    for t in report["w_expansion"]:
        tag = "pure" if t["pure"] else "nonpure"
        lines.append(
            f"  t^{tuple(t['alpha'])} * ({t['field']})   deg = ({', '.join(t['degree'])}) [{tag}]"
        )
    lines.append("Xhat expansion:")
    for t in report["xhat_expansion"]:
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
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(_verdict_text(report), args.out)
    return _OUTCOME_EXIT[Outcome(report["verdict"]["outcome"])]


def cmd_bump(args) -> int:
    excluded = tuple(_parse_int_list(args.excluded)) if args.excluded else ()
    result = moment_bump(args.a, args.a1, excluded)
    ok = (
        abs(result.moments[0]) < 1e-10
        and all(abs(result.moments[e]) < 1e-9 for e in result.excluded_exponents)
        and abs(result.moments[result.target_exponent]) > 1e-6
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
            fh.write(result.bump.to_json() + "\n")
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
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
    seq = load_kernel_sequence(args.kernel)
    report = verify_cancellation(seq)
    payload: dict = {
        "tool": {"name": "mpradon", "version": __version__},
        "cancellation": {
            "max_abs_slice_integral": report.max_abs,
            "tolerance": report.tolerance,
            "passed": report.passed,
            "failures": [
                {"k": list(c.index), "mu": c.mu, "max_abs": c.max_abs} for c in report.failing()
            ],
            "support_violations": [
                {"k": list(k), "radius": r} for k, r in report.support_violations
            ],
        },
    }
    if args.M is not None:
        truncations = sorted({0, max(args.M // 2, 1), args.M})
        alphas = [tuple(int(v) for v in a.split(",")) for a in args.alphas.split(";")] if args.alphas else [(0, 0)]
        estimates = sample_product_kernel_bounds(seq, truncations, alphas)
        payload["product_bounds"] = [
            {"alpha": list(e.alpha), "M": e.truncation, "constant": e.constant} for e in estimates
        ]
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [
            f"cancellation: {'PASS' if report.passed else 'FAIL'} "
            f"(max slice integral {report.max_abs:.3e}, tol {report.tolerance:.1e})"
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
    atom = None
    if args.spec:
        with open(args.spec) as fh:
            spec = parse_problem_spec(fh.read())
        if spec.experiment is None:
            raise SpecFileError(f"{args.spec} has no [experiment] section")
        cfg = spec.experiment
        case, m_list, level = cfg.case, list(cfg.m_list), cfg.level
        grid = Grid1D(cfg.grid_xmin, cfg.grid_xmax, cfg.grid_n)
        quad_order = cfg.quad_order
        if cfg.bump_a != 0.5:
            phi = moment_bump(cfg.bump_a, 1).bump
            atom = TensorBump((phi, phi))
    else:
        if args.case is None:
            raise SpecFileError("norm-growth needs --case (or --spec with [experiment])")
        case, m_list, level = args.case, _parse_int_list(args.M), args.L
        grid = Grid1D(args.grid_xmin, args.grid_xmax, args.grid_n)
        quad_order = args.quad_order
    table = growth_experiment(
        case,
        m_list,
        level=level,
        grid=grid,
        atom=atom,
        quad_order=quad_order,
    )
    if args.format == "json":
        _emit(table.to_json() + "\n", args.out)
    elif args.format == "csv":
        _emit(table.to_csv(), args.out)
    else:
        lines = [f"case {table.case} (grid n={grid.n}, window [{grid.xmin}, {grid.xmax}])"]
        for r in table.rows:
            lvl = "" if r.level is None else f" L={r.level}"
            flag = "" if r.converged else f" (not converged after {r.iterations} iterations)"
            lines.append(f"  M={r.truncation}{lvl}: norm={r.norm:.6e} ratio={r.ratio:.6f}{flag}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_BOUNDED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p_ng = sub.add_parser("norm-growth", help="operator norm growth experiment")
    p_ng.add_argument("--case", choices=CASES, default=None)
    p_ng.add_argument("--spec", default=None, help="read the [experiment] block from a spec file")
    p_ng.add_argument("--M", default="0..4", help="truncation list, e.g. '0..8' or '0 2 4'")
    p_ng.add_argument("--L", type=int, default=None, help="scale parameter for the know case")
    p_ng.add_argument("--grid-n", dest="grid_n", type=int, default=2048)
    p_ng.add_argument("--grid-xmin", dest="grid_xmin", type=float, default=-4.0)
    p_ng.add_argument("--grid-xmax", dest="grid_xmax", type=float, default=4.0)
    p_ng.add_argument("--quad-order", dest="quad_order", type=int, default=24)
    p_ng.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_ng.add_argument("--out", default=None)
    p_ng.set_defaults(func=cmd_norm_growth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
