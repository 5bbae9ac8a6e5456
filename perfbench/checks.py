"""Output checks that sit outside the engine.

Each check reads what a job printed (and its exit code) and returns None
when it accepts the output, or a one-line reason when it rejects it.  The
decide check is exact: it rebuilds what it needs from the report's own
fields with Fractions and never calls the decision procedures.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import product as iter_product

EXIT = {"bounded": 0, "unbounded": 2}
PRODUCT_2 = ["1 0", "0 1"]
HEISENBERG_BASIS = ("X", "Y", "T")

# -- exact helpers ------------------------------------------------------------


def rank(vectors: list[tuple[Fraction, ...]]) -> int:
    """Rank over Q by fraction-exact row reduction."""
    rows = [list(v) for v in vectors if any(v)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


_TERM = re.compile(r"^(-?)(?:(\d+(?:/\d+)?)\*)?(.+)$")


def parse_field(text: str, basis: tuple[str, ...]) -> tuple[Fraction, ...]:
    """Invert the report's field printing, e.g. 'X - 1/2*Y + 3*T'."""
    coords = dict.fromkeys(basis, Fraction(0))
    if text.strip() == "0":
        return tuple(coords.values())
    for sign, chunk in re.findall(r"(^|[+-]) ?([^+-]+?)(?= [+-] |$)", text.strip()):
        m = _TERM.match(chunk.strip())
        if m is None or m.group(3) not in coords:
            raise ValueError(f"unreadable field term {chunk!r} in {text!r}")
        c = Fraction(m.group(2) or 1) * (-1 if m.group(1) else 1) * (-1 if sign == "-" else 1)
        coords[m.group(3)] += c
    return tuple(coords.values())


def _frac_list(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


# -- decide ----------------------------------------------------------------


class Rejected(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise Rejected(reason)


def _entries(report: dict, key: str, basis: tuple[str, ...], prefix: str) -> dict:
    """label -> (alpha, degree, vector, pure) from an expansion block."""
    out = {}
    for t in report[key]:
        alpha = tuple(t["alpha"])
        out[f"{prefix}_{alpha}"] = (alpha, _frac_list(t["degree"]), parse_field(t["field"], basis), t["pure"])
    return out


def _newton(report: dict) -> None:
    """Recompute the Newton-line verdict from the exponents a and b."""
    exps = [tuple(t["alpha"]) for t in report["xhat_expansion"]]
    a = min((e for e, f in exps if f == 0), default=None)
    b = min((f for e, f in exps if e == 0), default=None)

    def below(e, f):
        return (Fraction(e, a) if a else 0) + (Fraction(f, b) if b else 0) < 1

    violators = [x for x in exps if below(*x)]
    outcome = report["verdict"]["outcome"]
    _require(outcome == ("unbounded" if violators else "bounded"), f"Newton line says {'un' if violators else ''}bounded")
    if violators:
        _require(tuple(report["verdict"]["witness"]["alpha0"]) in violators, "witness exponent is not below the Newton line")


def _closure(entries: dict, heisenberg: bool) -> dict:
    """Pure members plus, on H^1, every bracket of two pure members.

    Brackets are central on H^1, so brackets of brackets vanish and one
    round is the whole closure.
    """
    pure = {k: v for k, v in entries.items() if v[3]}
    closure = {k: (v[1], v[2]) for k, v in pure.items()}
    if heisenberg:
        for (la, (_, da, va, _)), (lb, (_, db, vb, _)) in iter_product(pure.items(), repeat=2):
            c = va[0] * vb[1] - vb[0] * va[1]
            if c:
                closure[f"[{la}, {lb}]"] = (tuple(x + y for x, y in zip(da, db)), (Fraction(0), Fraction(0), c))
    return closure


def _cross(u, v) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _critical_boundaries(degrees, d0) -> list[tuple[Fraction, Fraction]]:
    """The axes and every normal perpendicular to a mixed-sign difference
    d - d0, ordered from (1, 0) to (0, 1).  Membership below the line is
    constant on each open sector between neighbours."""
    out = set()
    for d in degrees:
        e1, e2 = d[0] - d0[0], d[1] - d0[1]
        if e1 * e2 < 0:
            n1, n2 = (-e2, e1) if e1 > 0 else (e2, -e1)
            out.add((n1 / (n1 + n2), n2 / (n1 + n2)))
    return [(Fraction(1), Fraction(0))] + sorted(out, key=lambda n: n[1]) + [(Fraction(0), Fraction(1))]


def _require_sweep(normals, degrees, d0, alpha0) -> None:
    """Each open sector between neighbouring critical normals holds a tested normal."""
    bounds = _critical_boundaries(degrees, d0)
    for u, v in zip(bounds, bounds[1:]):
        _require(
            any(_cross(u, n) > 0 and _cross(n, v) > 0 for n in normals),
            f"no certified normal for {alpha0} between {tuple(map(str, u))} and {tuple(map(str, v))}",
        )


def _sector_test(report: dict, heisenberg: bool) -> None:
    """Witness and certificates of the supporting-line test (nu = 2)."""
    key, basis, prefix = (
        ("xhat_expansion", HEISENBERG_BASIS, "Xhat") if heisenberg else ("w_expansion", ("d/dx",), "X")
    )
    entries = _entries(report, key, basis, prefix)
    closure = _closure(entries, heisenberg)
    verdict = report["verdict"]
    if verdict["outcome"] == "unbounded":
        w = verdict["witness"]
        alpha0 = tuple(w["alpha0"])
        _, d0, target, pure = entries[f"{prefix}_{alpha0}"]
        normal = _frac_list(w["normal"])
        _require(not pure and _frac_list(w["degree"]) == d0, "witness index is not the reported nonpure degree")
        _require(all(v >= 0 for v in normal) and any(normal), "witness normal is not a nonnegative nonzero vector")
        members = [v for d, v in closure.values() if _dot(normal, d) <= _dot(normal, d0)]
        _require(rank(members + [target]) > rank(members), "witness target lies in the span below its line")
        return
    nonpure = {alpha for alpha, _, _, pure in entries.values() if not pure}
    certified = {tuple(c["alpha0"]) for c in verdict["certificates"]}
    _require(nonpure <= certified, "a nonpure index has no certificate")
    for cert in verdict["certificates"]:
        alpha0 = tuple(cert["alpha0"])
        _, d0, target, _ = entries[f"{prefix}_{alpha0}"]
        normals = [_frac_list(s["normal"]) for s in cert["sectors"]]
        _require_sweep(normals, [d for d, _ in closure.values()], d0, alpha0)
        for sector in cert["sectors"]:
            normal = _frac_list(sector["normal"])
            total = [Fraction(0)] * len(basis)
            for label, coeff in zip(sector["members"], _frac_list(sector["coefficients"])):
                _require(label in closure, f"certificate member {label} is not in the closure")
                d, v = closure[label]
                _require(_dot(normal, d) <= _dot(normal, d0), f"member {label} lies above the line")
                total = [t + coeff * x for t, x in zip(total, v)]
            _require(tuple(total) == target, f"sector {sector['normal']} does not reproduce the target")


def _simplex_normals(nu: int, steps: int):
    for cut in iter_product(range(steps + 1), repeat=nu - 1):
        if sum(cut) <= steps:
            yield tuple(Fraction(c, steps) for c in cut) + (Fraction(steps - sum(cut), steps),)


def _scalar_high_nu(report: dict, grid_steps: int = 12) -> None:
    """Abelian control for nu >= 3: d0 in conv(pure degrees) + R_+^nu."""
    entries = _entries(report, "w_expansion", ("d/dx",), "X")
    pure = [d for _, d, _, p in entries.values() if p]
    verdict = report["verdict"]
    if verdict["outcome"] == "unbounded":
        w = verdict["witness"]
        d0, normal = _frac_list(w["degree"]), _frac_list(w["normal"])
        _require(all(v >= 0 for v in normal) and any(normal), "witness normal is not a nonnegative nonzero vector")
        _require(all(_dot(normal, d) > _dot(normal, d0) for d in pure), "witness normal does not separate the degree")
        return
    # bounded: no normal on a rational simplex grid may separate a nonpure degree
    nonpure = [d for _, d, _, p in entries.values() if not p]
    for d0 in nonpure:
        for normal in _simplex_normals(len(d0), grid_steps):
            _require(
                not all(_dot(normal, d) > _dot(normal, d0) for d in pure),
                f"normal {normal} separates {d0} from the pure degrees",
            )


def check_decide(job, rc: int, out: str, pins: dict | None) -> str | None:
    try:
        report = json.loads(out)
        outcome = report["verdict"]["outcome"]
        _require(outcome in EXIT, f"outcome {outcome!r}")
        _require(rc == EXIT[outcome], f"exit code {rc} for a {outcome} verdict")
        if job.expect_exit is not None:
            _require(rc == job.expect_exit, f"exit {rc}, expected {job.expect_exit} by construction")
        if pins is not None:
            _require(pins.get(job.name) == outcome, f"pinned outcome is {pins.get(job.name)}")
        echo = report["input"]
        nu = len(echo["scheme_rows"][0].split())
        if echo["family"] == "heisenberg":
            _sector_test(report, heisenberg=True)
        elif nu >= 3:
            _scalar_high_nu(report)
        elif echo["scheme_rows"] == PRODUCT_2:
            _newton(report)
        else:
            _sector_test(report, heisenberg=False)
    except Rejected as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    return None


# -- norm-growth -------------------------------------------------------------

NORM_RTOL = 0.01


def ref_key(case: str, level, m: int) -> str:
    return f"{case}|{'' if level is None else level}|{m}"


def check_norm_table(job, rc: int, out: str, refs: dict) -> str | None:
    """Each norm within 1% of its dense-SVD reference, plus the criterion
    6 and 8 thresholds on the kitty and billy tables."""
    meta = dict(job.meta)
    try:
        table = json.loads(out)
        if rc != 0:
            return f"exit code {rc}"
        if table["case"] != meta["case"] or table["grid"]["n"] != meta["n"]:
            return "table echoes another case or grid"
        rows = table["rows"]
        for r in rows:
            ref = refs[ref_key(meta["case"], meta["L"], r["M"])]
            if not abs(r["norm"] - ref) <= NORM_RTOL * ref:
                return f"M={r['M']}: norm {r['norm']!r} is {r['norm'] / ref - 1:+.2%} off the reference {ref!r}"
        ratios = [r["ratio"] for r in rows]
        if meta["case"] == "kitty":
            err = max(abs(r["ratio"] - (r["M"] + 1)) / (r["M"] + 1) for r in rows)
            if not err <= 1e-12:
                return f"kitty ratios miss M+1 by {err:.1e} (criterion 6)"
        if meta["case"] == "billy":
            if not (max(ratios) < 3.0 and ratios[12] / ratios[6] < 1.2):
                return f"billy ratios {max(ratios):.3f}, {ratios[12] / ratios[6]:.4f} break criterion 8"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable table: {type(exc).__name__}: {exc}"
    return None


def check_know_tables(tables: dict[int, list[float]]) -> str | None:
    """Criterion 7 across the three know tables (keyed by L)."""
    if set(tables) != {10, 15, 20}:
        return "know tables for L = 10, 15, 20 are incomplete"
    floors = all(r >= 0.8 * (m + 1) for m, r in enumerate(tables[20]))
    short = {lv: sum((m + 1) - r for m, r in enumerate(rs)) / 9 for lv, rs in tables.items()}
    study = short[10] > short[15] > short[20] >= 0.0
    monotone = all(
        tables[15][m] >= tables[10][m] - 1e-2 and tables[20][m] >= tables[15][m] - 1e-2 for m in range(9)
    )
    strict = all(tables[20][m] > tables[10][m] for m in range(4, 9))
    if floors and study and monotone and strict:
        return None
    return f"know tables break criterion 7 (floors {floors}, study {study}, monotone {monotone}, strict {strict})"


# -- kernels -------------------------------------------------------------

CANCEL_TOL = 1e-9


def check_kernel(job, rc: int, out: str) -> str | None:
    try:
        payload = json.loads(out)
        cancel = payload["cancellation"]
        if job.expect_exit == 2:
            if rc != 2 or cancel["passed"]:
                return f"non-cancelling kernel exited {rc} with passed={cancel['passed']}"
            return None
        if rc != 0 or not cancel["passed"]:
            return f"cancelling kernel exited {rc} with passed={cancel['passed']}"
        if not cancel["max_abs_slice_integral"] <= CANCEL_TOL:
            return f"max slice integral {cancel['max_abs_slice_integral']:.2e} > {CANCEL_TOL}"
        if "--M" in job.argv:
            bounds = payload["product_bounds"]
            if len(bounds) != 6 or not all(0 <= b["constant"] < math.inf for b in bounds):
                return "product bounds are missing or not finite"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    return None


def check_bump(job, rc: int, out: str) -> str | None:
    """Recompute the moments from the printed atoms in closed form."""
    from mpradon.bumps import BumpCombination

    meta = dict(job.meta)
    try:
        report = json.loads(out)
        if rc != 0:
            return f"exit code {rc}"
        bump = BumpCombination(tuple(tuple(a) for a in report["atoms"]))
        m0 = bump.moment_closed_form(0)
        target = bump.moment_closed_form(meta["a1"])
        worst = max((abs(bump.moment_closed_form(e)) for e in meta["excluded"]), default=0.0)
        if not (abs(m0) < 1e-10 and worst < 1e-9 and abs(target) > 1e-6):
            return f"closed-form moments |m0|={abs(m0):.1e}, excluded {worst:.1e}, target {abs(target):.1e}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    return None
