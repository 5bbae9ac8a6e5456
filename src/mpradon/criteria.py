"""Exact boundedness criteria.

Three decision procedures, all exact (rational or integer arithmetic):

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
    central, so the closure is one round of pure x pure brackets, computed
    on integer numerators.  The closure is cleared to integers once; each
    sector normal is a coprime integer pair, and each sector is an integer
    test: cleared degrees against the normal, a scan that keeps the first
    members raising the rank (at most 3, the pivots Gauss-Jordan would
    pick), and Cramer's rule on those members at their pivot rows.  The
    sectors are walked in slope order and only the entries on the boundary
    just crossed change sides, so the scan and the solve are redone only
    where that can change the kept members.
    Fractions are built only for what a certificate reports (normals and
    coefficients); no rational elimination runs on this path.

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
The verdict dataclasses hold only their fields, whose names are the JSON keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, lcm
from typing import Iterable, Sequence

from .dilations import Degree, ExponentScheme, MultiIndex, degree, is_pure
from .symbolic.fields import HEISENBERG_BASIS, heisenberg_bracket
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


@dataclass(frozen=True)
class ClosureEntry:
    vec: tuple[Fraction, ...]  # coordinates in the expansion's basis
    degree: Degree
    label: str


@dataclass(frozen=True)
class PowerSets:
    """Pure/nonpure split of an expansion plus the bracket closure of the pure part."""

    scheme: ExponentScheme
    pure: tuple[ClosureEntry, ...]
    nonpure: tuple[tuple[MultiIndex, ClosureEntry], ...]
    closure: tuple[ClosureEntry, ...]

    @cached_property
    def cleared(self) -> "ClearedClosure":
        """The closure in integers, computed on first use and kept with these sets."""
        scale = lcm(*(v.denominator for row in self.scheme.rows for v in row))
        scales = [lcm(*(c.denominator for c in e.vec)) for e in self.closure]
        return ClearedClosure(
            scale,
            tuple(_cleared(e.degree, scale) for e in self.closure),
            tuple(_cleared(e.vec, s) for e, s in zip(self.closure, scales)),
            tuple(scales),
        )


@dataclass(frozen=True)
class ClearedClosure:
    """Closure degrees times one common scale, and each field times its own scale.

    The common scale is the lcm of the scheme's denominators, so it clears
    every degree deg(alpha) = sum_i alpha_i e_i; a field's scale is the lcm
    of its coordinates' denominators.  All entries are ints, in closure
    order.
    """

    scale: int
    degrees: tuple[tuple[int, ...], ...]
    vectors: tuple[tuple[int, ...], ...]
    vector_scales: tuple[int, ...]


# -- sector enumeration on the normal ray -----------------------------


def _coprime(v: Sequence[int]) -> tuple[int, ...]:
    """Integers, not all 0, divided by their gcd."""
    g = gcd(*v)
    return tuple(n // g for n in v)


def _by_slope(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Compare two normals with positive first entries by slope, via the cross product."""
    return u[1] * v[0] - v[1] * u[0]


def _sector_walk(diffs: Sequence[tuple[int, int]]) -> list[tuple[tuple[int, int], list[int]]]:
    """The open sectors of [axis, axis] for integer differences, in slope order.

    The sector boundaries are the interior normals perpendicular to a
    difference of mixed sign, as coprime integer pairs sorted by slope
    through cross products.  Each sector comes as its representative, the
    sum of its two boundaries reduced, with the positions of the
    differences perpendicular to the boundary crossed on entering it (none
    for the first sector): the only ones whose sign against the normal
    flips there, each exactly once.
    """
    crossings: dict[tuple[int, int], list[int]] = {}
    for j, (d1, d2) in enumerate(diffs):
        if (d1 > 0 > d2) or (d1 < 0 < d2):
            g = gcd(d1, d2) if d1 > 0 else -gcd(d1, d2)
            crossings.setdefault((-d2 // g, d1 // g), []).append(j)
    boundary = [(1, 0), *sorted(crossings, key=cmp_to_key(_by_slope)), (0, 1)]
    walk = []
    for (u1, u2), (v1, v2) in zip(boundary, boundary[1:]):
        g = gcd(u1 + v1, u2 + v2)
        walk.append((((u1 + v1) // g, (u2 + v2) // g), crossings.get((u1, u2), [])))
    return walk


def sector_normals(diffs: Iterable[Degree]) -> list[tuple[Fraction, Fraction]]:
    """One rational representative normal per open sector of [axis, axis].

    The differences are cleared to integers, which moves no normal, and
    ``_sector_walk`` orders the sectors, so the supporting-line sweep and
    this list agree sector by sector.
    """
    diffs = set(diffs)
    scale = lcm(*(v.denominator for d in diffs for v in d))
    return [tuple(map(Fraction, n)) for n, _ in _sector_walk([_cleared(d, scale) for d in diffs])]


# -- Heisenberg criterion ----------------------------------------------


def _split_pure(
    expansion: WExpansion, prefix: str
) -> tuple[tuple[ClosureEntry, ...], tuple[tuple[MultiIndex, ClosureEntry], ...]]:
    """Pure entries and (alpha, entry) pairs for the nonpure ones, labelled ``{prefix}_{alpha}``."""
    pure: list[ClosureEntry] = []
    nonpure: list[tuple[MultiIndex, ClosureEntry]] = []
    for alpha, d in expansion.degrees.items():
        entry = ClosureEntry(expansion.terms[alpha], d, f"{prefix}_{alpha}")
        if is_pure(d):
            pure.append(entry)
        else:
            nonpure.append((alpha, entry))
    return tuple(pure), tuple(nonpure)


def pure_closure_heisenberg(xhat: WExpansion) -> PowerSets:
    """Split Xhat into pure/nonpure and close the pure part under brackets.

    Every bracket is a multiple of the central field T (``heisenberg_bracket``
    gives the multiple), and T brackets to zero with everything, so brackets
    of brackets vanish: one round of pure x pure brackets is the whole
    closure.  The round visits the ordered pairs (a, b) of pure entries and
    tries [a, b], then [b, a]; a bracket whose (coords, degree) is already
    present is dropped, so each keeps the first label reached.

    The round runs in integers: each generator's X and Y coordinates are
    cleared by their own lcm and the degrees by one common scale, so a
    bracket's T coordinate is a reduced integer fraction and its dedupe key
    holds only ints.  A Fraction is built only for an entry that is kept.
    """
    if xhat.basis != HEISENBERG_BASIS:
        raise ValueError("expansion must carry the Heisenberg basis tag {X, Y, T}")
    pure, nonpure = _split_pure(xhat, "Xhat")
    closure = list(pure)
    scale = lcm(*(v.denominator for e in pure for v in e.degree))
    gens = []
    # keys (T numerator, T denominator, cleared degree) of the central entries;
    # an entry with an X or Y part never equals a bracket
    seen = set()
    for e in pure:
        x, y, t = e.vec
        degree_key = _cleared(e.degree, scale)
        if not x and not y:
            seen.add((t.numerator, t.denominator, degree_key))
        xy_scale = lcm(x.denominator, y.denominator)
        gens.append((e, _cleared((x, y), xy_scale), xy_scale, degree_key))
    zero = Fraction(0)
    for a, a_xy, a_scale, a_key in gens:
        for b, b_xy, b_scale, b_key in gens:
            num = heisenberg_bracket(a_xy, b_xy)
            if not num:
                continue
            den = a_scale * b_scale
            g = gcd(num, den)
            num, den = num // g, den // g
            degree_key = tuple(x + y for x, y in zip(a_key, b_key))
            d = None
            for left, right, value in ((a, b, num), (b, a, -num)):
                key = (value, den, degree_key)
                if key in seen:
                    continue
                seen.add(key)
                d = d or tuple(x + y for x, y in zip(a.degree, b.degree))
                vec = (zero, zero, Fraction(value, den))
                closure.append(ClosureEntry(vec, d, f"[{left.label}, {right.label}]"))
    return PowerSets(xhat.scheme, pure, nonpure, tuple(closure))


def _cleared(values: Sequence[Fraction], scale: int | None = None) -> tuple[int, ...]:
    """The rationals times scale (default: the lcm of their denominators), as ints."""
    scale = scale or lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values)


def _independent_prefix(
    vectors: Iterable[tuple[int, Sequence[int]]], dim: int
) -> tuple[list[int], list[int]]:
    """Keys of the vectors, in order, that raise the rank of the ones before them.

    Takes (key, vector) pairs and stops once ``dim`` vectors are kept.  A
    vector raises the rank iff it is not in the span of its predecessors,
    which is also the rule by which Gauss-Jordan over the columns in order
    picks its pivot columns.  Fraction-free elimination: each kept vector is
    stored reduced against the earlier ones, with its first nonzero entry
    as pivot, so a vector is in the span iff it reduces to zero.

    Also returns each kept vector's pivot row.  A reduced vector is zero on
    the pivot rows of the ones kept before it, so the kept vectors
    themselves have a nonsingular minor on those rows.
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
    return kept, [p for p, _ in rows]


def _det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a small square integer matrix: closed forms up to 3 x 3,
    cofactors along the first row above."""
    n = len(m)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n < 2:
        return m[0][0] if n else 1
    total = 0
    for j, v in enumerate(m[0]):
        if v:
            total += (-1) ** j * v * _det([row[:j] + row[j + 1 :] for row in m[1:]])
    return total


def _solve_on_pivots(
    columns: Sequence[Sequence[int]],
    scales: Sequence[int],
    pivots: Sequence[int],
    goal: Sequence[int],
    goal_scale: int,
) -> dict[int, Fraction] | None:
    """lambda with sum_j lambda_j columns[j] / scales[j] = goal / goal_scale, or None.

    The integer columns are independent and nonsingular on the pivot rows,
    so a solution is unique if it exists.  Cramer's rule on that minor gives
    integers n_j and det with sum_j n_j columns[j] = det * goal on the pivot
    rows; the remaining rows confirm it.  Only the nonzero lambda_j =
    n_j scales[j] / (det goal_scale) are returned, keyed by position.
    """
    # the minor is held by columns; a determinant does not see the transpose
    minor = [[c[i] for i in pivots] for c in columns]
    rhs = [goal[i] for i in pivots]
    det = _det(minor)
    nums = [_det(minor[:j] + [rhs] + minor[j + 1 :]) for j in range(len(minor))]
    for i, g in enumerate(goal):
        if i not in pivots and sum(n * c[i] for n, c in zip(nums, columns)) != det * g:
            return None
    return {j: Fraction(n * scales[j], det * goal_scale) for j, n in enumerate(nums) if n}


def supporting_line_condition(
    alpha0: MultiIndex,
    target: tuple[Fraction, ...],
    power_sets: PowerSets,
) -> tuple[bool, ControlCertificate | Witness]:
    """Is the target spanned by H_pi for every supporting line through deg(alpha0)?

    Everything runs on ``power_sets.cleared``, the closure in integers, so
    no step is rational until a coefficient is returned.  "On or below the
    line" is an integer dot product of a cleared degree with the integer
    sector normal.  In each sector the members are scanned in closure order
    and the first ones that raise the rank are kept, at most dim(basis) of
    them: these are the pivot columns that Gauss-Jordan on the full member
    list picks.  They are independent, so the target has at most one
    combination of them, and Cramer's rule on their minor at the
    elimination's pivot rows finds it (or shows there is none) with
    integer determinants; that is the combination, on the same members,
    that Gauss-Jordan returns.  A witness still lists the whole H_pi.

    The sectors are walked in slope order.  Membership is tested once, in
    the first sector; after that only the entries whose degree difference
    lies on the boundary just crossed change sides.  The kept members and
    their combination carry over unless the crossing can change them:
    a kept member leaves, an entering member comes before the last kept
    one in closure order (both rescan the members), or fewer than dim(basis)
    are kept and an entering member raises the rank (the kept members are
    then extended by the entering ones).  A member that is not kept lies in
    the span of the kept ones before it, so neither its leaving nor an
    entry after the last kept member changes the scan otherwise.
    """
    d0 = degree(alpha0, power_sets.scheme)
    if is_pure(d0):
        raise ValueError(f"alpha0={alpha0} has pure degree {d0}; only nonpure indices are tested")
    if not any(target):
        raise ValueError("target field must be nonzero")
    if len(d0) != 2:
        raise ValueError("the supporting-line test needs a two-parameter scheme")
    closure = power_sets.closure
    view = power_sets.cleared
    degrees, vectors, scales = view.degrees, view.vectors, view.vector_scales
    x0, y0 = _cleared(d0, view.scale)
    goal_scale = lcm(*(c.denominator for c in target))
    goal = _cleared(target, goal_scale)
    dim = len(goal)
    diffs = [(x - x0, y - y0) for x, y in degrees]
    walk = _sector_walk(diffs)
    # the sweep starts with no members, and the first sector's members enter it
    (b1, b2), _ = walk[0]
    walk[0] = ((b1, b2), [j for j, (dx, dy) in enumerate(diffs) if b1 * dx + b2 * dy <= 0])
    member = [False] * len(diffs)
    kept: list[int] = []
    combo = None  # no members span a nonzero target
    sectors: list[SectorCertificate] = []
    for normal, crossing in walk:
        entering = [j for j in crossing if not member[j]]
        for j in crossing:
            member[j] = not member[j]
        scan = None
        if any(j in kept for j in crossing) or (entering and kept and entering[0] < kept[-1]):
            scan = _independent_prefix(((j, vectors[j]) for j, m in enumerate(member) if m), dim)
        elif entering and len(kept) < dim:
            scan = _independent_prefix(((j, vectors[j]) for j in kept + entering), dim)
        if scan is not None and scan[0] != kept:
            kept, pivots = scan
            combo = _solve_on_pivots(
                [vectors[j] for j in kept], [scales[j] for j in kept], pivots, goal, goal_scale
            )
            if combo is not None:
                members = tuple(closure[kept[j]].label for j in combo)
                coefficients = tuple(combo.values())
        fractions = tuple(map(Fraction, normal))
        if combo is None:
            h_pi = [e.label for e, m in zip(closure, member) if m]
            return False, Witness(
                alpha0,
                d0,
                fractions,
                f"Xhat_{alpha0} is outside span(H_pi) for the line with normal {normal}; "
                f"H_pi = {h_pi}",
            )
        sectors.append(SectorCertificate(fractions, members, coefficients))
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
        normal = (1,) * nu
    else:
        normal = _coprime(_cleared([Fraction(0) if a is None else 1 / a for a in least]))
    return tuple(least), (alpha0, d0, tuple(map(Fraction, normal)))


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


def scalar_control_verdict(w: WExpansion) -> Verdict:
    """Control decision when every expansion field is parallel to one constant field.

    Parallel constant fields bracket to zero, so the closure is the pure set.
    For nu = 2 the supporting-line sweep runs on it, which serves every
    scheme and returns sector certificates.  For nu >= 3 a nonpure degree is
    controlled iff it lies on or above the Newton simplex of the pure
    degrees (see ``_newton_simplex``); the witness is the nonpure index
    furthest below it, and bounded certificates carry no sectors.
    """
    support = w.support()
    if not support:
        return Verdict(Outcome.BOUNDED, diagnostics="zero expansion")
    v0 = w.terms[support[0]]
    for alpha in support:
        v = w.terms[alpha]
        # nonzero fields are parallel iff every 2 x 2 minor of (v, v0) vanishes
        if any(v[i] * v0[j] != v[j] * v0[i] for j in range(len(v0)) for i in range(j)):
            return Verdict(
                Outcome.INCONCLUSIVE,
                diagnostics=f"field at {alpha} is not parallel to the field at {support[0]}; "
                "the scalar reduction does not apply",
            )
    pure, nonpure = _split_pure(w, "X")
    if not nonpure:
        return Verdict(Outcome.BOUNDED, diagnostics="all degrees are pure")
    nu = w.scheme.n_params
    if nu == 2:
        return _sweep_verdict(PowerSets(w.scheme, pure, nonpure, pure))
    _, worst = _newton_simplex(
        (e.degree for e in pure), ((alpha, e.degree) for alpha, e in nonpure), nu
    )
    if worst is None:
        return Verdict(
            Outcome.BOUNDED,
            certificates=tuple(ControlCertificate(alpha, e.degree, ()) for alpha, e in nonpure),
        )
    alpha0, d0, normal = worst
    reason = f"degree ({', '.join(map(str, d0))}) lies outside the Newton polyhedron of the pure degrees"
    return Verdict(Outcome.UNBOUNDED, witness=Witness(alpha0, d0, normal, reason))
