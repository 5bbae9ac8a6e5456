"""Exact boundedness criteria.

Three decision procedures, all in rational arithmetic:

  * ``real_line_verdict`` -- the Newton-line test for gamma_(s,t)(x) = x - p(s,t)
    with product kernels: bounded iff every exponent (e, f) of p lies on or
    above the line through (a, 0) and (0, b), where a and b are the minimal
    pure powers of s and t (infinite when absent, with the convention
    x / inf = 0).

  * ``heisenberg_verdict`` -- the supporting-line test on H^1: for every
    nonpure alpha_0 with Xhat_{alpha_0} != 0 and every line through
    deg(alpha_0) with normal (b_1, b_2) in [0, inf)^2 \\ {0}, the field
    Xhat_{alpha_0} must lie in the span of the bracket closure elements on
    or below the line.  "All lines" is decided by finite sector enumeration:
    membership in H_pi is piecewise constant in the normal direction, the
    breakpoints are the directions orthogonal to degree differences, and a
    sector-endpoint H_pi contains both neighbours' H_pi, so a rational
    midpoint per open sector is a complete check.  Every bracket on H^1 is
    central, so the closure is one round of pure x pure brackets.  Each
    sector is an integer test: degrees with cleared denominators against
    the integer normal, and a scan that keeps the first members raising the
    rank (at most 3), which are the pivots Gauss-Jordan would pick, so only
    those reach the rational solve.

  * ``scalar_control_verdict`` -- the abelian case (all expansion fields
    parallel to one constant field): for nu = 2 this is the same sector
    test with trivial brackets; for nu >= 3 it is membership of the
    nonpure degree in the Newton polyhedron conv(pure degrees) + R_+^nu.
    Pure degrees lie on the coordinate axes, so that polyhedron is the
    simplex {d : sum_mu d_mu / A_mu >= 1}, A_mu the least pure degree on
    axis mu -- the same closed form as the Newton-line test.

Verdicts carry machine-checkable data: an Unbounded verdict names the
violating multi-index and a witnessing normal; a Bounded verdict carries,
for every nonpure index checked, the spanning subset used in each sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .dilations import Degree, ExponentScheme, MultiIndex, degree, is_pure
from .symbolic.fields import HEISENBERG_BASIS, BasisVector
from .symbolic.gamma import (
    HEISENBERG,
    GammaSpec,
    UnsupportedFamily,
    WExpansion,
    xhat_expansion,
)
from .symbolic.poly import Polynomial


class Outcome(str, Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """Why the operator family is unbounded: which index, which line."""

    alpha0: MultiIndex | None
    degree: Degree
    normal: tuple[Fraction, ...]
    reason: str


@dataclass(frozen=True)
class SectorCertificate:
    """One sector's check: the normal tested and the spanning combination."""

    normal: tuple[Fraction, ...]
    members: tuple[str, ...]
    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class ControlCertificate:
    alpha0: MultiIndex | None
    degree: Degree
    sectors: tuple[SectorCertificate, ...]


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    witness: Witness | None = None
    certificates: tuple[ControlCertificate, ...] = ()
    diagnostics: str = ""

    def __post_init__(self):
        if self.outcome is Outcome.UNBOUNDED and self.witness is None:
            raise ValueError("unbounded verdicts must carry a witness")

    @property
    def bounded(self) -> bool:
        return self.outcome is Outcome.BOUNDED


@dataclass(frozen=True)
class ClosureEntry:
    vec: BasisVector
    degree: Degree
    label: str


@dataclass(frozen=True)
class PowerSets:
    """Pure/nonpure split of an expansion plus the bracket closure of the pure part."""

    scheme: ExponentScheme
    pure: tuple[ClosureEntry, ...]
    nonpure: tuple[tuple[MultiIndex, ClosureEntry], ...]
    closure: tuple[ClosureEntry, ...]


# -- rational linear algebra ------------------------------------------


def express_in_span(
    vectors: Sequence[tuple[Fraction, ...]], target: tuple[Fraction, ...]
) -> dict[int, Fraction] | None:
    """Coefficients lambda with sum lambda_j vectors[j] = target, or None.

    Gaussian elimination over Q; free variables are set to zero, so the
    support of the solution is a pivot subset (a minimal spanning witness).
    """
    dim = len(target)
    m = len(vectors)
    rows = [[vectors[j][i] for j in range(m)] + [target[i]] for i in range(dim)]
    r = 0
    pivots: list[tuple[int, int]] = []
    for col in range(m):
        pr = next((i for i in range(r, dim) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(dim):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
        if r == dim:
            break
    for i in range(r, dim):
        if rows[i][m] != 0:
            return None
    return {col: rows[row][m] for row, col in pivots if rows[row][m] != 0}


# -- sector enumeration on the normal ray -----------------------------


def _primitive(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a nonnegative rational vector to coprime integer entries."""
    fracs = [Fraction(x) for x in v]
    mult = 1
    for f in fracs:
        mult = mult * f.denominator // gcd(mult, f.denominator)
    ints = [int(f * mult) for f in fracs]
    g = 0
    for n in ints:
        g = gcd(g, n)
    return tuple(Fraction(n // g) for n in ints) if g else tuple(fracs)


def _critical_normals(diffs: Iterable[Degree]) -> list[tuple[Fraction, Fraction]]:
    """Interior normal directions where some half-plane membership flips."""
    out = set()
    for d in set(diffs):
        d1, d2 = d
        if (d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0):
            n = (-d2, d1) if d1 > 0 else (d2, -d1)
            out.add(_primitive(n))
    return sorted(out, key=lambda n: Fraction(n[1], n[0]))


def sector_normals(diffs: Iterable[Degree]) -> list[tuple[Fraction, Fraction]]:
    """One rational representative normal per open sector of [axis, axis]."""
    boundary = [(Fraction(1), Fraction(0))] + _critical_normals(diffs) + [
        (Fraction(0), Fraction(1))
    ]
    return [
        _primitive((u[0] + v[0], u[1] + v[1])) for u, v in zip(boundary, boundary[1:])
    ]


# -- Heisenberg criterion ----------------------------------------------


def _split_pure(
    expansion: WExpansion, scheme: ExponentScheme, prefix: str
) -> tuple[tuple[ClosureEntry, ...], tuple[tuple[MultiIndex, ClosureEntry], ...]]:
    """Pure entries and (alpha, entry) pairs for the nonpure ones, labelled ``{prefix}_{alpha}``."""
    pure: list[ClosureEntry] = []
    nonpure: list[tuple[MultiIndex, ClosureEntry]] = []
    for alpha in expansion.support():
        d = degree(alpha, scheme)
        entry = ClosureEntry(expansion.terms[alpha], d, f"{prefix}_{alpha}")
        if is_pure(d):
            pure.append(entry)
        else:
            nonpure.append((alpha, entry))
    return tuple(pure), tuple(nonpure)


def pure_closure_heisenberg(
    xhat: WExpansion, scheme: ExponentScheme | None = None
) -> PowerSets:
    """Split Xhat into pure/nonpure and close the pure part under brackets.

    Brackets use the structure relation [aX+bY+cT, a'X+b'Y+c'T] = (ab'-a'b)T.
    Every bracket is a multiple of the central field T, and T brackets to
    zero with everything, so brackets of brackets vanish: one round of
    pure x pure brackets is the whole closure.  The round visits the ordered
    pairs (a, b) of pure entries and tries [a, b], then [b, a]; a bracket
    whose (coords, degree) is already present is dropped, so each keeps the
    first label reached.
    """
    if xhat.basis != HEISENBERG_BASIS:
        raise ValueError("expansion must carry the Heisenberg basis tag {X, Y, T}")
    scheme = scheme or xhat.scheme
    pure, nonpure = _split_pure(xhat, scheme, "Xhat")
    closure = list(pure)
    seen = {(e.vec.coords, e.degree) for e in closure}
    gens = [(e, e.vec.coords[0], e.vec.coords[1]) for e in pure]
    zero = Fraction(0)
    for a, ax, ay in gens:
        for b, bx, by in gens:
            c = ax * by - bx * ay
            if c == 0:
                continue
            d = tuple(x + y for x, y in zip(a.degree, b.degree))
            for left, right, value in ((a, b, c), (b, a, -c)):
                coords = (zero, zero, value)
                if (coords, d) in seen:
                    continue
                seen.add((coords, d))
                vec = BasisVector(coords, HEISENBERG_BASIS)
                closure.append(ClosureEntry(vec, d, f"[{left.label}, {right.label}]"))
    return PowerSets(scheme, pure, nonpure, tuple(closure))


def _cleared(values: Sequence[Fraction], scale: int | None = None) -> tuple[int, ...]:
    """The rationals times scale (default: the lcm of their denominators), as ints."""
    scale = scale or lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values)


def _independent_prefix(vectors: Iterable[tuple[int, Sequence[int]]], dim: int) -> list[int]:
    """Keys of the vectors, in order, that raise the rank of the ones before them.

    Takes (key, vector) pairs and stops once ``dim`` vectors are kept.  A
    vector raises the rank iff it is not in the span of its predecessors,
    which is also the rule by which Gauss-Jordan over the columns in order
    picks its pivot columns.  Fraction-free elimination: each kept vector is
    stored reduced against the earlier ones, with its first nonzero entry
    as pivot, so a vector is in the span iff it reduces to zero.
    """
    rows: list[tuple[int, list]] = []
    kept: list[int] = []
    for key, v in vectors:
        w = list(v)
        for p, r in rows:
            if w[p]:
                f, g = r[p], w[p]
                w = [f * x - g * y for x, y in zip(w, r)]
        p = next((i for i, x in enumerate(w) if x), None)
        if p is None:
            continue
        rows.append((p, w))
        kept.append(key)
        if len(kept) == dim:
            break
    return kept


def supporting_line_condition(
    alpha0: MultiIndex,
    target: BasisVector,
    power_sets: PowerSets,
) -> tuple[bool, ControlCertificate | Witness]:
    """Is the target spanned by H_pi for every supporting line through deg(alpha0)?

    Degrees are scaled once by the lcm of their denominators, so "on or
    below the line" is an integer dot product with the sector normal.  In
    each sector the members are scanned in closure order and the first ones
    that raise the rank are kept, at most dim(basis) of them: these are the
    pivot columns that Gauss-Jordan on the full member list picks, so
    ``express_in_span`` on them alone returns the same coefficients on the
    same members (or None exactly when the full solve does).  A witness
    still lists the whole H_pi.
    """
    d0 = degree(alpha0, power_sets.scheme)
    if is_pure(d0):
        raise ValueError(f"alpha0={alpha0} has pure degree {d0}; only nonpure indices are tested")
    if target.is_zero():
        raise ValueError("target field must be nonzero")
    if len(d0) != 2:
        raise ValueError("the supporting-line test needs a two-parameter scheme")
    closure = power_sets.closure
    scale = lcm(*(v.denominator for v in d0), *(v.denominator for e in closure for v in e.degree))
    degrees = [_cleared(e.degree, scale) for e in closure]
    x0, y0 = _cleared(d0, scale)
    coords = [_cleared(e.vec.coords) for e in closure]
    dim = len(target.coords)
    sectors: list[SectorCertificate] = []
    for normal in sector_normals([(x - x0, y - y0) for x, y in degrees]):
        b1, b2 = int(normal[0]), int(normal[1])
        bound = b1 * x0 + b2 * y0
        members = (
            (j, coords[j]) for j, (x, y) in enumerate(degrees) if b1 * x + b2 * y <= bound
        )
        kept = _independent_prefix(members, dim)
        combo = express_in_span([closure[j].vec.coords for j in kept], target.coords)
        if combo is None:
            h_pi = [e.label for e, (x, y) in zip(closure, degrees) if b1 * x + b2 * y <= bound]
            return False, Witness(
                alpha0,
                d0,
                normal,
                f"Xhat_{alpha0} is outside span(H_pi) for the line with normal {normal}; "
                f"H_pi = {h_pi}",
            )
        sectors.append(
            SectorCertificate(
                normal,
                tuple(closure[kept[j]].label for j in sorted(combo)),
                tuple(combo[j] for j in sorted(combo)),
            )
        )
    return True, ControlCertificate(alpha0, d0, tuple(sectors))


def _sweep_verdict(power_sets: PowerSets) -> Verdict:
    """Supporting-line test for every nonpure index; the first failure is the witness."""
    certificates = []
    for alpha0, entry in power_sets.nonpure:
        ok, payload = supporting_line_condition(alpha0, entry.vec, power_sets)
        if not ok:
            return Verdict(Outcome.UNBOUNDED, witness=payload)
        certificates.append(payload)
    return Verdict(Outcome.BOUNDED, certificates=tuple(certificates))


def heisenberg_verdict(spec: GammaSpec) -> Verdict:
    """Theorem-level decision for left-invariant curves on H^1 (nu = 2 kernels)."""
    if spec.family != HEISENBERG:
        raise UnsupportedFamily("heisenberg_verdict needs a heisenberg GammaSpec")
    nu = spec.scheme.n_params
    if nu == 1:
        return Verdict(
            Outcome.BOUNDED,
            diagnostics="single-parameter kernels: control is automatic for real analytic curves",
        )
    if nu != 2:
        return Verdict(
            Outcome.INCONCLUSIVE,
            diagnostics=f"supporting-line criterion is formulated for nu = 2, got nu = {nu}",
        )
    return _sweep_verdict(pure_closure_heisenberg(xhat_expansion(spec)))


# -- Newton simplex: the real line and scalar control for nu >= 3 --------


def _newton_simplex(
    pure: Iterable[Degree], nonpure: Iterable[tuple[MultiIndex, Degree]], nu: int
) -> tuple[tuple[Fraction | None, ...], tuple[MultiIndex, Degree, tuple[Fraction, ...]] | None]:
    """Least pure degree A_mu per axis, and the nonpure index furthest below the simplex.

    Pure degrees lie on the coordinate axes, so conv(pure) + R_+^nu is
    {d : sum_mu d_mu / A_mu >= 1} with x / inf = 0 (A_mu is None when axis mu
    carries no pure degree).  Of the nonpure (alpha, d) strictly below it,
    the one with the least such sum wins, ties broken by |alpha|, then
    alpha.  Its normal (1 / A_mu), scaled to coprime integers, is the unique
    maximizer of b |-> min_d b . (d - d0) over normalized b >= 0; with no
    pure degree at all every normal works and (1, ..., 1) is returned.
    """
    least: list[Fraction | None] = [None] * nu
    for d in pure:
        mu = next(i for i, v in enumerate(d) if v != 0)
        if least[mu] is None or d[mu] < least[mu]:
            least[mu] = d[mu]
    below = []
    for alpha, d in nonpure:
        value = sum((v / a for v, a in zip(d, least) if a is not None), Fraction(0))
        if value < 1:
            below.append((value, sum(alpha), alpha, d))
    if not below:
        return tuple(least), None
    _, _, alpha0, d0 = min(below, key=lambda t: t[:3])
    if all(a is None for a in least):
        normal = tuple(Fraction(1) for _ in range(nu))
    else:
        normal = _primitive([Fraction(0) if a is None else 1 / a for a in least])
    return tuple(least), (alpha0, d0, normal)


def real_line_verdict(p: Polynomial) -> Verdict:
    """Newton-line test for T f(x) = int f(x - p(s,t)) K(s,t) ds dt."""
    if p.nvars != 2:
        raise ValueError("the real-line criterion expects a polynomial in (s, t)")
    if p.constant_term() != 0:
        raise ValueError("p must have zero constant term")
    # under the product scheme an exponent is its own degree
    terms = [(alpha, tuple(map(Fraction, alpha))) for alpha in p.terms]
    least, worst = _newton_simplex(
        [d for _, d in terms if is_pure(d)], [t for t in terms if not is_pure(t[1])], 2
    )
    a, b = ("inf" if v is None else str(v) for v in least)
    if worst is None:
        return Verdict(
            Outcome.BOUNDED,
            diagnostics=f"every exponent lies on or above the line through ({a}, 0) and (0, {b})",
        )
    alpha0, d0, normal = worst
    reason = f"exponent {alpha0} lies strictly below the Newton line (a={a}, b={b})"
    return Verdict(Outcome.UNBOUNDED, witness=Witness(alpha0, d0, normal, reason))


# -- scalar (abelian) control -------------------------------------------


def scalar_control_verdict(
    w: WExpansion, scheme: ExponentScheme | None = None
) -> Verdict:
    """Control decision when every expansion field is parallel to one constant field.

    Parallel constant fields bracket to zero, so the closure is the pure set.
    For nu = 2 the supporting-line sweep runs on it, which serves every
    scheme and returns sector certificates.  For nu >= 3 a nonpure degree is
    controlled iff it lies on or above the Newton simplex of the pure
    degrees (see ``_newton_simplex``); the witness is the nonpure index
    furthest below it, and bounded certificates carry no sectors.
    """
    scheme = scheme or w.scheme
    support = w.support()
    if not support:
        return Verdict(Outcome.BOUNDED, diagnostics="zero expansion")
    v0 = w.terms[support[0]]
    for alpha in support:
        if w.terms[alpha].parallel_ratio(v0) is None:
            return Verdict(
                Outcome.INCONCLUSIVE,
                diagnostics=f"field at {alpha} is not parallel to the field at {support[0]}; "
                "the scalar reduction does not apply",
            )
    pure, nonpure = _split_pure(w, scheme, "X")
    if not nonpure:
        return Verdict(Outcome.BOUNDED, diagnostics="all degrees are pure")
    nu = scheme.n_params
    if nu == 2:
        return _sweep_verdict(PowerSets(scheme, pure, nonpure, pure))
    _, worst = _newton_simplex(
        (e.degree for e in pure), ((alpha, e.degree) for alpha, e in nonpure), nu
    )
    if worst is None:
        return Verdict(
            Outcome.BOUNDED,
            certificates=tuple(ControlCertificate(alpha, e.degree, ()) for alpha, e in nonpure),
        )
    alpha0, d0, normal = worst
    reason = f"degree {d0} lies outside the Newton polyhedron of the pure degrees"
    return Verdict(Outcome.UNBOUNDED, witness=Witness(alpha0, d0, normal, reason))
