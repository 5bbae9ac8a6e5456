import json
import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from typing import Sequence
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpradon.cli import EXIT_BOUNDED, EXIT_UNBOUNDED, main, parse_problem_spec
from mpradon.criteria import (
    ClosureEntry,
    ControlCertificate,
    Outcome,
    PowerSets,
    SectorCertificate,
    Verdict,
    Witness,
    _cleared,
    _det,
    _independent_prefix,
    _newton_simplex,
    _solve_on_pivots,
    _split_pure,
    heisenberg_verdict,
    pure_closure_heisenberg,
    real_line_verdict,
    scalar_control_verdict,
    sector_normals,
    supporting_line_condition,
)
from mpradon.dilations import Degree, ExponentScheme, MultiIndex, degree, is_pure
from mpradon.symbolic import (
    GammaSpec,
    HEISENBERG_BASIS,
    Polynomial,
    WExpansion,
    xhat_expansion,
)
import mpradon.criteria as criteria
from oracles import per_sector_condition, primitive, scalar_polynomial_expansion, substitute_scaled

ST = ("s", "t")
ZERO = Polynomial.zero(ST)


def P(text: str) -> Polynomial:
    return Polynomial.parse(text, ST)


def heis(p1, p2, p3) -> GammaSpec:
    return GammaSpec.heisenberg(P(p1), P(p2), P(p3))


# -- real line criterion ---------------------------------------------------


def test_real_line_st_unbounded():
    v = real_line_verdict(P("s*t"))
    assert v.outcome is Outcome.UNBOUNDED
    assert v.witness.alpha0 == (1, 1)


def test_real_line_cubic_unbounded():
    v = real_line_verdict(P("s^3 + t^3 + s*t"))
    assert v.outcome is Outcome.UNBOUNDED
    assert v.witness.alpha0 == (1, 1)
    assert v.witness.normal == (1, 1)


def test_real_line_s_plus_st_bounded():
    v = real_line_verdict(P("s + s*t"))
    assert v.outcome is Outcome.BOUNDED


def test_real_line_boundary_is_bounded():
    # exponents exactly on the Newton line pass ("on or above")
    assert real_line_verdict(P("s^2 + t^2 + s*t")).outcome is Outcome.BOUNDED
    assert real_line_verdict(P("s^4 + t^4 + s^2*t^2")).outcome is Outcome.BOUNDED
    assert real_line_verdict(P("s^4 + t^4 + s*t^2")).outcome is Outcome.UNBOUNDED


def test_real_line_zero_and_pure():
    assert real_line_verdict(ZERO).outcome is Outcome.BOUNDED
    assert real_line_verdict(P("s^5 - 2*t")).outcome is Outcome.BOUNDED


def test_real_line_rejects_bad_input():
    with pytest.raises(ValueError):
        real_line_verdict(P("1 + s"))
    with pytest.raises(ValueError):
        real_line_verdict(Polynomial.parse("s1 + s2*s3", ("s1", "s2", "s3")))


def _random_poly(rng: random.Random, max_deg: int = 6) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 7)):
        e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        if sum(e) == 0:
            continue
        terms[e] = Fraction(rng.randint(-9, 9) or 1)
    return Polynomial(ST, terms)


def test_real_line_scale_invariance():
    rng = random.Random(5150)
    for _ in range(40):
        p = _random_poly(rng)
        scaled = substitute_scaled(p, [Fraction(3, 2), Fraction(-5)])
        assert real_line_verdict(p).outcome == real_line_verdict(scaled).outcome


def test_real_line_monotonicity():
    # adding an on-or-above-line term never flips bounded -> unbounded
    rng = random.Random(777)
    checked = 0
    while checked < 40:
        p = _random_poly(rng)
        v = real_line_verdict(p)
        if v.outcome is not Outcome.BOUNDED:
            continue
        a = min((e for (e, f) in p.terms if f == 0), default=None)
        b = min((f for (e, f) in p.terms if e == 0), default=None)
        e = rng.randint(a or 1, (a or 1) + 4)
        f = rng.randint(b or 1, (b or 1) + 4)
        value = (Fraction(e, a) if a else 0) + (Fraction(f, b) if b else 0)
        if value < 1:
            continue
        if (e == 0 and (b is None or f < b)) or (f == 0 and (a is None or e < a)):
            continue  # keep a, b unchanged by the addition
        q = p + Polynomial(ST, {(e, f): Fraction(rng.randint(1, 5))})
        assert real_line_verdict(q).outcome is Outcome.BOUNDED, (p, (e, f))
        checked += 1


# -- scalar control ----------------------------------------------------------


def scalar(p_text: str) -> WExpansion:
    return scalar_polynomial_expansion(P(p_text))


def test_scalar_control_square_example():
    assert scalar_control_verdict(scalar("s^2 + t^2 + s*t")).outcome is Outcome.BOUNDED


def test_scalar_control_cubic_example():
    v = scalar_control_verdict(scalar("s^3 + t^3 + s*t"))
    assert v.outcome is Outcome.UNBOUNDED
    assert v.witness.alpha0 == (1, 1)


def test_scalar_control_lone_mixed_term():
    assert scalar_control_verdict(scalar("s*t")).outcome is Outcome.UNBOUNDED


def test_scalar_control_non_parallel_is_inconclusive():
    terms = {
        (1, 0): (1, 0, 0),
        (0, 1): (0, 1, 0),
    }
    w = WExpansion(ExponentScheme.product(2), HEISENBERG_BASIS, terms)
    v = scalar_control_verdict(w)
    assert v.outcome is Outcome.INCONCLUSIVE
    assert "not parallel" in v.diagnostics


def test_scalar_control_respects_scheme():
    # e_1 = (1,1), e_2 = (0,1): the lone s term has nonpure degree (1,1)
    # with no pure terms available, unlike under the product scheme
    scheme = ExponentScheme.from_rows([[1, 1], [0, 1]])
    w = scalar_polynomial_expansion(P("s"), scheme)
    assert scalar_control_verdict(w).outcome is Outcome.UNBOUNDED
    assert real_line_verdict(P("s")).outcome is Outcome.BOUNDED
    # deg(t^2) = (0,2) does not dominate deg(s) = (1,1) along the normal (1,2)
    w2 = scalar_polynomial_expansion(P("s + t^2"), scheme)
    v2 = scalar_control_verdict(w2)
    assert v2.outcome is Outcome.UNBOUNDED
    assert v2.witness.normal == (1, 2)
    # deg(t) = (0,1) sits below (1,1) for every nonnegative normal
    w3 = scalar_polynomial_expansion(P("s + t"), scheme)
    assert scalar_control_verdict(w3).outcome is Outcome.BOUNDED


def test_scalar_control_agrees_with_newton_test():
    rng = random.Random(4242)
    for _ in range(60):
        p = _random_poly(rng)
        assert (
            scalar_control_verdict(scalar(str(p))).outcome
            == real_line_verdict(p).outcome
        )


def test_scalar_control_three_parameters():
    # pure degrees {(2,0,0), (0,2,0), (0,0,2)}; (1,1,0) = midpoint of two of
    # them lies in the Newton polyhedron, (1,1,0)/2 does not
    scheme = ExponentScheme.product(3)
    vars3 = ("s1", "s2", "s3")
    ok = Polynomial(
        vars3,
        {
            (2, 0, 0): Fraction(1),
            (0, 2, 0): Fraction(1),
            (0, 0, 2): Fraction(1),
            (1, 1, 0): Fraction(1),
        },
    )
    w = scalar_polynomial_expansion(ok, scheme)
    assert scalar_control_verdict(w).outcome is Outcome.BOUNDED
    # push the mixed degree below the hull: pure set {(4,0,0),(0,4,0),(0,0,4)}
    # against (1,1,0) gives 1/4 + 1/4 < 1
    deep = Polynomial(
        vars3,
        {
            (4, 0, 0): Fraction(1),
            (0, 4, 0): Fraction(1),
            (0, 0, 4): Fraction(1),
            (1, 1, 0): Fraction(1),
        },
    )
    w_deep = scalar_polynomial_expansion(deep, scheme)
    v = scalar_control_verdict(w_deep)
    assert v.outcome is Outcome.UNBOUNDED
    assert v.witness.alpha0 == (1, 1, 0)
    # the witness normal must beat every pure degree
    b = v.witness.normal
    d0 = degree((1, 1, 0), scheme)
    for pure in ((4, 0, 0), (0, 4, 0), (0, 0, 4)):
        d = degree(pure, scheme)
        assert sum(x * y for x, y in zip(b, d)) > sum(x * y for x, y in zip(b, d0))


# -- Newton simplex against the kink-vertex enumeration --------------------------


def _solve_linear(matrix: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Unique solution of a square integer system, or None if singular.

    Fraction-free (Bareiss) elimination keeps every entry an integer; only
    the back substitution divides.
    """
    n = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    prev = 1
    for col in range(n):
        pr = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pr is None:
            return None
        a[col], a[pr] = a[pr], a[col]
        pivot = a[col]
        for i in range(col + 1, n):
            f = a[i][col]
            a[i] = [(pivot[col] * u - f * v) // prev for u, v in zip(a[i], pivot)]
        prev = pivot[col]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))) / Fraction(a[i][i])
    return x


def _abelian_violating_normal(
    pure_degrees: list[Degree], d0: Degree, nu: int
) -> tuple[Fraction, ...] | None:
    """A normal b >= 0 with b.d > b.d0 for every pure degree d, if one exists.

    Maximizes the concave piecewise-linear b |-> min_d b.(d - d0) over the
    simplex; the maximum sits on a vertex of the kink arrangement, so it is
    enough to scan solutions of nu-1 tight constraints plus normalization.
    """
    if not pure_degrees:
        return tuple(Fraction(1) for _ in range(nu))
    diffs = [tuple(x - y for x, y in zip(d, d0)) for d in pure_degrees]

    def worst(b: Sequence[Fraction]) -> Fraction:
        return min(sum(bi * di for bi, di in zip(b, diff)) for diff in diffs)

    # a row and its nonzero multiples are one hyperplane, so keep one row per
    # direction (coprime integers, leading entry positive): the vertex set
    # does not change
    constraints: dict[tuple[int, ...], None] = {}
    rows = [tuple(diffs[i][mu] - diffs[j][mu] for mu in range(nu)) for i, j in combinations(range(len(diffs)), 2)]
    rows += [tuple(Fraction(1 if k == mu else 0) for k in range(nu)) for mu in range(nu)]
    for row in rows:
        lead = next((v for v in row if v != 0), None)
        if lead is not None:
            scaled = [v / lead for v in row]
            mult = lcm(*(v.denominator for v in scaled))
            constraints[tuple(int(v * mult) for v in scaled)] = None

    candidates: set[tuple[Fraction, ...]] = set()
    for mu in range(nu):
        candidates.add(tuple(Fraction(1 if k == mu else 0) for k in range(nu)))
    for subset in combinations(constraints, nu - 1):
        sol = _solve_linear([*subset, [1] * nu], [0] * (nu - 1) + [1])
        if sol is not None and all(v >= 0 for v in sol):
            candidates.add(tuple(sol))
    best = max(candidates, key=worst)
    return primitive(best) if worst(best) > 0 else None


_RATIONALS = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))


@st.composite
def _simplex_cases(draw):
    """(nu, pure degrees on random axes, a nonpure d0 with >= 2 nonzero entries)."""
    nu = draw(st.integers(2, 5))
    pure = []
    for _ in range(draw(st.integers(0, 7))):
        mu = draw(st.integers(0, nu - 1))
        value = draw(_RATIONALS)
        pure.append(tuple(value if k == mu else Fraction(0) for k in range(nu)))
    d0 = [draw(st.one_of(st.just(Fraction(0)), _RATIONALS)) for _ in range(nu)]
    for mu in draw(st.lists(st.integers(0, nu - 1), min_size=2, max_size=2, unique=True)):
        if d0[mu] == 0:
            d0[mu] = draw(_RATIONALS)
    return nu, pure, tuple(d0)


@settings(max_examples=60, deadline=None)
@given(_simplex_cases())
def test_newton_simplex_matches_vertex_enumeration(case):
    nu, pure, d0 = case
    expected = _abelian_violating_normal(pure, d0, nu)
    _, worst = _newton_simplex(pure, [((0,) * nu, d0)], nu)
    assert (worst is not None) == (expected is not None)
    if worst is not None:
        assert worst[1] == d0
        assert worst[2] == expected


def _product_line_spec(rng: random.Random, pure_per_axis: int, nu: int, mixed: int, bounded: bool):
    """A nu-parameter product-scheme line spec with a known outcome.

    With a_mu the least pure power on axis mu, a mixed exponent alpha is
    controlled iff sum alpha_mu / a_mu >= 1; an unbounded spec carries exactly
    one mixed exponent below that plane, which is returned with the text.
    """
    names = [f"s{i + 1}" for i in range(nu)]
    exponents: set[tuple[int, ...]] = set()
    least = []
    for mu in range(nu):
        powers = rng.sample(range(3, 9), pure_per_axis)
        least.append(min(powers))
        exponents.update(tuple(e if k == mu else 0 for k in range(nu)) for e in powers)

    def below(alpha):
        return sum(Fraction(v, a) for v, a in zip(alpha, least)) < 1

    target = len(exponents) + mixed
    while len(exponents) < target:
        alpha = tuple(rng.randint(0, 5) for _ in range(nu))
        if sum(v > 0 for v in alpha) >= 2 and not below(alpha):
            exponents.add(alpha)
    planted = None
    while not bounded and planted is None:
        alpha = tuple(rng.randint(0, 2) for _ in range(nu))
        if sum(v > 0 for v in alpha) >= 2 and alpha not in exponents and below(alpha):
            planted = alpha
            exponents.add(alpha)
    p = " + ".join(
        "*".join(f"{n}^{e}" for n, e in zip(names, alpha) if e) for alpha in sorted(exponents)
    )
    rows = " ; ".join(" ".join("1" if j == i else "0" for j in range(nu)) for i in range(nu))
    text = (
        f"[problem]\nfamily = translation_line\nvariables = {' '.join(names)}\n"
        f"p = {p}\n[scheme]\ne = {rows}\n"
    )
    return text, planted


@pytest.mark.parametrize("bounded", [True, False])
def test_five_parameter_line_decides_quickly(tmp_path, capsys, bounded):
    # 15 pure powers and 20 mixed terms: C(110, 4) vertex subsets for the
    # enumeration, one pass over the terms for the simplex test
    text, planted = _product_line_spec(random.Random(5), 3, 5, 20, bounded)
    path = tmp_path / "nu5.spec"
    path.write_text(text)
    start = time.perf_counter()
    code = main(["analyze", "--spec", str(path), "--format", "json", "--no-timestamp"])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == (EXIT_BOUNDED if bounded else EXIT_UNBOUNDED)
    assert elapsed < 1.0
    if not bounded:
        assert report["verdict"]["witness"]["alpha0"] == list(planted)


# -- heisenberg criterion ------------------------------------------------------


def test_pure_closure_adds_commutator():
    xh = xhat_expansion(heis("s", "t", "0"))
    ps = pure_closure_heisenberg(xh)
    assert len(ps.pure) == 2
    coords = {(e.vec, e.degree) for e in ps.closure}
    assert ((Fraction(0), Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))) in coords


def test_pure_closure_central_directions_commute():
    xh = xhat_expansion(heis("0", "0", "s + t"))
    ps = pure_closure_heisenberg(xh)
    assert len(ps.closure) == len(ps.pure) == 2


def test_pure_closure_cubic_example():
    xh = xhat_expansion(heis("0", "0", "s^3 + t^3 + s*t"))
    ps = pure_closure_heisenberg(xh)
    assert [e.degree for e in ps.pure] == [(3, 0), (0, 3)]
    assert [a for a, _ in ps.nonpure] == [(1, 1)]
    assert len(ps.closure) == 2  # central: closure is the pure set


def test_supporting_line_cubic_fails_with_witness():
    ps = pure_closure_heisenberg(xhat_expansion(heis("0", "0", "s^3 + t^3 + s*t")))
    target = (Fraction(0), Fraction(0), Fraction(1))
    ok, witness = supporting_line_condition((1, 1), target, ps)
    assert not ok
    assert witness.normal == (1, 1)


def test_supporting_line_square_passes():
    ps = pure_closure_heisenberg(xhat_expansion(heis("0", "0", "s^2 + t^2 + s*t")))
    target = (Fraction(0), Fraction(0), Fraction(1))
    ok, cert = supporting_line_condition((1, 1), target, ps)
    assert ok
    assert all(len(s.members) >= 1 for s in cert.sectors)


def test_supporting_line_self_membership():
    xh = xhat_expansion(heis("s", "t", "s*t"))
    ps = pure_closure_heisenberg(xh)
    target = (Fraction(0), Fraction(0), Fraction(1))
    ok, cert = supporting_line_condition((1, 1), target, ps)
    assert ok


def test_supporting_line_rejects_pure_index():
    ps = pure_closure_heisenberg(xhat_expansion(heis("s", "t", "0")))
    with pytest.raises(ValueError):
        supporting_line_condition((2, 0), (Fraction(1), Fraction(0), Fraction(0)), ps)


def test_heisenberg_verdict_bracket_certificate():
    v = heisenberg_verdict(heis("s", "t", "s*t"))
    assert v.outcome is Outcome.BOUNDED
    cert = v.certificates[0]
    assert cert.alpha0 == (1, 1)
    # T is certified through the bracket of the two pure generators
    assert any(
        "[Xhat_(1, 0), Xhat_(0, 1)]" in member
        for s in cert.sectors
        for member in s.members
    )


def test_heisenberg_verdict_central_examples():
    v = heisenberg_verdict(heis("0", "0", "s*t"))
    assert v.outcome is Outcome.UNBOUNDED
    assert v.witness.alpha0 == (1, 1)
    assert heisenberg_verdict(heis("0", "0", "s + s*t")).outcome is Outcome.BOUNDED


def test_heisenberg_central_agrees_with_real_line():
    rng = random.Random(1414)
    for _ in range(50):
        p = _random_poly(rng)
        spec = GammaSpec.heisenberg(ZERO, ZERO, p)
        assert heisenberg_verdict(spec).outcome == real_line_verdict(p).outcome


def test_heisenberg_mixed_direction_case():
    # X at (2,0), Y at (0,2): closure contains T at (2,2), which controls
    # a central term at (2,2) but not one at (1,1)
    assert heisenberg_verdict(heis("s^2", "t^2", "s^2*t^2")).outcome is Outcome.BOUNDED
    assert heisenberg_verdict(heis("s^2", "t^2", "s*t")).outcome is Outcome.UNBOUNDED


# -- the rational Gauss-Jordan solve and the Fraction-slope sector normals, as oracles --


def _gauss_jordan(
    vectors: Sequence[tuple[Fraction, ...]], target: tuple[Fraction, ...]
) -> tuple[list[int], dict[int, Fraction] | None]:
    """Gauss-Jordan over Q on the columns in order: the pivot columns, and
    the coefficients lambda with sum lambda_j vectors[j] = target, or None.

    Free variables are set to zero, so the support of the solution is a
    pivot subset (a minimal spanning witness).  The pivot columns do not
    depend on the target.  Row operations skip zero entries, whose
    products are zero.
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
        rows[r] = [v / pv if v else v for v in rows[r]]
        for i in range(dim):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
        if r == dim:
            break
    columns = [col for _, col in pivots]
    if any(rows[i][m] != 0 for i in range(r, dim)):
        return columns, None
    return columns, {col: rows[row][m] for row, col in pivots if rows[row][m] != 0}


def express_in_span(
    vectors: Sequence[tuple[Fraction, ...]], target: tuple[Fraction, ...]
) -> dict[int, Fraction] | None:
    """Coefficients lambda with sum lambda_j vectors[j] = target, or None."""
    return _gauss_jordan(vectors, target)[1]


def test_express_in_span_basics():
    basis = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    combo = express_in_span(basis, (Fraction(3), Fraction(2)))
    assert combo == {0: 1, 1: 2}
    assert express_in_span([basis[0]], (Fraction(0), Fraction(1))) is None
    assert express_in_span([], (Fraction(0), Fraction(0))) == {}


def _fraction_sector_normals(diffs) -> list[tuple[Fraction, Fraction]]:
    """The sector normals in rational arithmetic: critical normals by
    primitive, sorted by Fraction(n2, n1), and primitive midpoints."""
    critical = set()
    for d1, d2 in set(diffs):
        if (d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0):
            critical.add(primitive((-d2, d1) if d1 > 0 else (d2, -d1)))
    boundary = [(Fraction(1), Fraction(0))]
    boundary += sorted(critical, key=lambda n: Fraction(n[1], n[0]))
    boundary += [(Fraction(0), Fraction(1))]
    return [primitive((u[0] + v[0], u[1] + v[1])) for u, v in zip(boundary, boundary[1:])]


# -- the fixed-point closure and full Gauss-Jordan sector test, as the oracle --------


def _combination(coefficients, vectors) -> tuple[Fraction, ...]:
    """sum_j coefficients[j] * vectors[j], coordinatewise in the basis {X, Y, T}."""
    return tuple(
        sum((Fraction(c) * v[i] for c, v in zip(coefficients, vectors)), Fraction(0)) for i in range(3)
    )


def _fixed_point_closure(xhat: WExpansion) -> PowerSets:
    """Split Xhat into pure/nonpure and close the pure part under brackets.

    Brackets use the structure relation [aX+bY+cT, a'X+b'Y+c'T] = (ab'-a'b)T;
    since every bracket is central the closure stabilizes after one round,
    but the loop below runs to an honest fixed point.
    """
    if xhat.basis != HEISENBERG_BASIS:
        raise ValueError("expansion must carry the Heisenberg basis tag {X, Y, T}")
    pure, nonpure = _split_pure(xhat, "Xhat")
    closure = list(pure)
    seen = {(e.vec, e.degree) for e in closure}
    frontier = list(closure)
    while frontier:
        fresh: list[ClosureEntry] = []
        for a in closure:
            for b in frontier:
                for left, right in ((a, b), (b, a)):
                    (lx, ly, _), (rx, ry, _) = left.vec, right.vec
                    t = lx * ry - ly * rx
                    if not t:
                        continue
                    br = (Fraction(0), Fraction(0), t)
                    d = tuple(x + y for x, y in zip(left.degree, right.degree))
                    key = (br, d)
                    if key in seen:
                        continue
                    seen.add(key)
                    fresh.append(ClosureEntry(br, d, f"[{left.label}, {right.label}]"))
        closure.extend(fresh)
        frontier = fresh
    return PowerSets(xhat.scheme, pure, nonpure, tuple(closure))


def _full_sector_test(
    alpha0: MultiIndex,
    target: tuple[Fraction, ...],
    power_sets: PowerSets,
) -> tuple[bool, ControlCertificate | Witness]:
    """Is the target spanned by H_pi for every supporting line through deg(alpha0)?"""
    d0 = degree(alpha0, power_sets.scheme)
    if is_pure(d0):
        raise ValueError(f"alpha0={alpha0} has pure degree {d0}; only nonpure indices are tested")
    if not any(target):
        raise ValueError("target field must be nonzero")
    if len(d0) != 2:
        raise ValueError("the supporting-line test needs a two-parameter scheme")
    diffs = [tuple(x - y for x, y in zip(e.degree, d0)) for e in power_sets.closure]
    sectors: list[SectorCertificate] = []
    # on or below the line: normal . (d - d0) <= 0, a sign that does not change
    # when d - d0 is multiplied by its positive denominators
    scaled = [(x.numerator * y.denominator, y.numerator * x.denominator) for x, y in diffs]
    for normal in _fraction_sector_normals(diffs):
        b1, b2 = int(normal[0]), int(normal[1])
        members = [e for e, (x, y) in zip(power_sets.closure, scaled) if b1 * x + b2 * y <= 0]
        combo = express_in_span([e.vec for e in members], target)
        if combo is None:
            return False, Witness(
                alpha0,
                d0,
                normal,
                f"Xhat_{alpha0} is outside span(H_pi) for the line with normal ({', '.join(map(str, normal))}); "
                f"H_pi = {[e.label for e in members]}",
            )
        sectors.append(
            SectorCertificate(
                normal,
                tuple(members[j].label for j in sorted(combo)),
                tuple(combo[j] for j in sorted(combo)),
            )
        )
    return True, ControlCertificate(alpha0, d0, tuple(sectors))


def _oracle_verdict(power_sets: PowerSets) -> Verdict:
    """heisenberg_verdict for nu = 2, from the fixed-point closure, by the full sector test."""
    certificates = []
    for alpha0, entry in power_sets.nonpure:
        ok, payload = _full_sector_test(alpha0, entry.vec, power_sets)
        if not ok:
            return Verdict(Outcome.UNBOUNDED, witness=payload)
        certificates.append(payload)
    return Verdict(Outcome.BOUNDED, certificates=tuple(certificates))


_EXPONENTS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


@st.composite
def _h1_specs(draw):
    """Random nu = 2 H^1 specs: degree <= 6, density 0.3-1.0, rational coefficients.

    P3 = 0 in a fifth of them (X/Y terms only) and P1 = P2 = 0 in another
    fifth (central terms only); the scheme is the product one or a random
    rational one, so degrees carry denominators.
    """
    rng = draw(st.randoms(use_true_random=False))
    top = draw(st.integers(1, 6))
    density = draw(st.floats(0.3, 1.0))
    mode = draw(st.sampled_from(("mixed", "mixed", "mixed", "planar", "central")))
    scheme = ExponentScheme.product(2)
    if draw(st.booleans()):
        rows = [[draw(st.sampled_from(_EXPONENTS)) for _ in range(2)] for _ in range(2)]
        if all(any(r) for r in rows) and all(rows[0][mu] or rows[1][mu] for mu in range(2)):
            scheme = ExponentScheme.from_rows(rows)
    monomials = [(i, k - i) for k in range(1, top + 1) for i in range(k + 1)]
    polys = []
    for component in range(3):
        terms = {}
        if not ((mode == "central" and component < 2) or (mode == "planar" and component == 2)):
            for alpha in monomials:
                if rng.random() < density:
                    terms[alpha] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        polys.append(Polynomial(ST, terms))
    return GammaSpec.heisenberg(*polys, scheme=scheme)


@settings(max_examples=40, deadline=None)
@given(_h1_specs())
def test_one_round_engine_matches_fixed_point_oracle(spec):
    xh = xhat_expansion(spec)
    engine = pure_closure_heisenberg(xh)
    oracle = _fixed_point_closure(xh)
    assert engine.closure == oracle.closure
    assert (engine.pure, engine.nonpure) == (oracle.pure, oracle.nonpure)
    assert heisenberg_verdict(spec) == _oracle_verdict(oracle)


_SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_NONZERO = _SMALL.filter(bool)


@st.composite
def _vector_lists(draw):
    """(dim, vectors, target): 1- or 3-vectors with zeros, parallels, repeats and
    sums of two earlier members; the target is zero, in the span, or drawn freely."""
    dim = draw(st.sampled_from((1, 3)))
    vectors: list[tuple[Fraction, ...]] = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "parallel", "repeat", "sum")))
        if kind == "zero":
            vectors.append((Fraction(0),) * dim)
        elif kind == "sum" and vectors:
            u, v = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            f, g = draw(_NONZERO), draw(_NONZERO)
            vectors.append(tuple(f * x + g * y for x, y in zip(u, v)))
        elif kind != "fresh" and vectors:
            v = draw(st.sampled_from(vectors))
            f = Fraction(1) if kind == "repeat" else draw(_NONZERO)
            vectors.append(tuple(f * x for x in v))
        else:
            vectors.append(tuple(draw(_SMALL) for _ in range(dim)))
    target_kind = draw(st.sampled_from(("zero", "span", "free")))
    if target_kind == "zero":
        target = (Fraction(0),) * dim
    elif vectors and target_kind == "span":
        weights = [draw(_SMALL) for _ in vectors]
        target = tuple(sum((w * v[i] for w, v in zip(weights, vectors)), Fraction(0)) for i in range(dim))
    else:
        target = tuple(draw(_SMALL) for _ in range(dim))
    return dim, vectors, target


@settings(max_examples=200, deadline=None)
@given(_vector_lists())
def test_independent_prefix_is_the_gauss_jordan_pivot_choice(case):
    dim, vectors, target = case
    cleared = [_cleared(v) for v in vectors]
    kept, pivots = _independent_prefix(enumerate(cleared), dim)
    pivot_columns, full = _gauss_jordan(vectors, target)
    assert kept == pivot_columns
    sub = express_in_span([vectors[k] for k in kept], target)
    # the integer Cramer solve on the kept cleared vectors, at their pivot rows
    scales = [lcm(*(c.denominator for c in vectors[k])) for k in kept]
    goal_scale = lcm(*(c.denominator for c in target))
    solved = _solve_on_pivots(
        [cleared[k] for k in kept], scales, pivots, _cleared(target, goal_scale), goal_scale
    )
    if full is None:
        assert sub is None and solved is None
    else:
        assert {kept[j]: c for j, c in sub.items()} == full
        assert {kept[j]: c for j, c in solved.items()} == full
        assert all(type(c) is Fraction for c in solved.values())


def _square(n: int):
    return st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(_square))
def test_det_matches_the_leibniz_sum(m):
    n = len(m)
    expected = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= m[row][col]
        expected += term
    assert _det(m) == expected


def _dense_h1_text(top: int) -> str:
    """Every monomial of degree 1..top in P1, P2 and P3, with fixed rational coefficients."""
    monomials = [(i, k - i) for k in range(1, top + 1) for i in range(k, -1, -1)]

    def poly(seed: int) -> str:
        terms = {
            alpha: Fraction((seed * 7 + n * 3) % 11 - 5 or 1, (n + seed) % 4 + 1)
            for n, alpha in enumerate(monomials)
        }
        return str(Polynomial(ST, terms))

    return f"[problem]\nfamily = heisenberg\np1 = {poly(1)}\np2 = {poly(2)}\np3 = {poly(3)}\n"


def test_dense_degree_ten_h1_decides_quickly(tmp_path, capsys):
    # 65 monomials in each of P1, P2, P3: a closure of 388 entries, 45 nonpure
    # indices and their sectors; the fixed-point closure and the full
    # Gauss-Jordan in every sector took about 20 s here
    text = _dense_h1_text(10)
    path = tmp_path / "dense10.spec"
    path.write_text(text)
    start = time.perf_counter()
    code = main(["analyze", "--spec", str(path), "--format", "json", "--no-timestamp"])
    elapsed = time.perf_counter() - start
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert code in (EXIT_BOUNDED, EXIT_UNBOUNDED)
    assert elapsed < 5.0
    spec = parse_problem_spec(text).gamma
    xh = xhat_expansion(spec)
    oracle = _fixed_point_closure(xh)
    entries = {e.label: e for e in oracle.closure}
    nonpure = dict(oracle.nonpure)
    assert [tuple(c["alpha0"]) for c in verdict["certificates"]] == list(nonpure)[
        : len(verdict["certificates"])
    ]
    for cert in verdict["certificates"]:
        alpha0 = tuple(cert["alpha0"])
        d0 = nonpure[alpha0].degree
        for sector in cert["sectors"]:
            b = [Fraction(v) for v in sector["normal"]]
            for label in sector["members"]:
                e = entries[label]
                assert b[0] * e.degree[0] + b[1] * e.degree[1] <= b[0] * d0[0] + b[1] * d0[1]
            total = _combination(sector["coefficients"], [entries[m].vec for m in sector["members"]])
            assert total == xh.terms[alpha0]
    if code == EXIT_UNBOUNDED:
        w = verdict["witness"]
        alpha0 = tuple(w["alpha0"])
        ok, _ = _full_sector_test(alpha0, xh.terms[alpha0], oracle)
        assert not ok


# -- the sector sweep against the per-sector loop ----------------------------------


def _assert_sweep_matches_per_sector_loop(power_sets: PowerSets) -> None:
    """Every nonpure index, not only up to the first failing one."""
    for alpha0, entry in power_sets.nonpure:
        expected = per_sector_condition(alpha0, entry.vec, power_sets)
        assert supporting_line_condition(alpha0, entry.vec, power_sets) == expected


_FIELDS = st.tuples(*[st.integers(-3, 3)] * 3).filter(any).map(lambda v: tuple(map(Fraction, v)))


@st.composite
def _trigger_closures(draw):
    """(trigger, alpha0, target, power sets) built so that the sweep must re-solve.

    Under the product scheme deg(alpha0) = alpha0 = (x0, y0).  A degree
    (x, y) with x < x0 and y > y0 is a member in the first sector and
    leaves; one with x > x0 and y < y0 enters; one with x <= x0 and y <= y0
    is a member in every sector, and one with x >= x0 and y > y0 in none.
    The target is spanned in the first sector, so the sweep reaches the
    crossing that triggers:

      * "leave": the first closure entry leaves, and it is kept;
      * "enter": the first closure entry enters before a kept member;
      * "rank": parallel members keep fewer than 3, and later entries
        that enter raise the rank.
    """
    trigger = draw(st.sampled_from(("leave", "enter", "rank")))
    x0, y0 = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    regions = {
        "leaves": lambda: (ints(0, x0 - 1), ints(y0 + 1, y0 + 4)),
        "enters": lambda: (ints(x0 + 1, x0 + 4), ints(0, y0 - 1)),
        "member": lambda: (ints(0, x0), ints(0, y0)),
        "outside": lambda: (ints(x0, x0 + 3), ints(y0 + 1, y0 + 3)),
        "any": lambda: (ints(0, 8), ints(0, 8)),
    }
    entries = []
    if trigger == "leave":
        entries.append((regions["leaves"](), draw(_FIELDS)))
        target = entries[0][1]
    elif trigger == "enter":
        entries.append((regions["enters"](), draw(_FIELDS)))
        entries.append((regions["member"](), draw(_FIELDS)))
        target = entries[1][1]
    else:
        target = draw(_FIELDS)
        for c in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
            entries.append((regions["member"](), tuple(c * v for v in target)))
        not_parallel = _FIELDS.filter(
            lambda w: any(w[i] * target[j] != w[j] * target[i] for i in range(3) for j in range(i))
        )
        for _ in range(draw(st.integers(1, 3))):
            entries.append((regions["enters"](), draw(not_parallel)))
    for _ in range(draw(st.integers(0, 6))):
        region = "outside" if trigger == "rank" else draw(st.sampled_from(list(regions)))
        entries.append((regions[region](), draw(_FIELDS)))
    closure = tuple(
        ClosureEntry(vec, tuple(map(Fraction, d)), f"e{i}") for i, (d, vec) in enumerate(entries)
    )
    alpha0 = (x0, y0)
    target_entry = ClosureEntry(target, tuple(map(Fraction, alpha0)), "target")
    power_sets = PowerSets(ExponentScheme.product(2), (), ((alpha0, target_entry),), closure)
    return trigger, alpha0, target, power_sets


@settings(max_examples=200, deadline=None)
@given(_trigger_closures())
def test_sweep_re_solves_at_each_trigger_as_the_per_sector_loop_does(case):
    trigger, alpha0, target, power_sets = case
    with patch.object(criteria, "_solve_on_pivots", wraps=criteria._solve_on_pivots) as solve:
        result = supporting_line_condition(alpha0, target, power_sets)
    assert result == per_sector_condition(alpha0, target, power_sets)
    # the first sector's solve and at least the one the trigger forced
    assert solve.call_count >= 2
    if trigger != "leave":  # the target stays a member's field in every sector
        assert result[0]


@st.composite
def _closures(draw):
    """Arbitrary small closures: degrees and fields drawn freely, repeats allowed."""
    x0, y0 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    degrees = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(lambda d: tuple(map(Fraction, d)))
    x_only = _FIELDS.filter(lambda v: v[0]).map(lambda v: (v[0], Fraction(0), Fraction(0)))
    fields = st.one_of(_FIELDS, x_only)
    pairs = draw(st.lists(st.tuples(degrees, fields), max_size=12))
    closure = tuple(ClosureEntry(vec, d, f"e{i}") for i, (d, vec) in enumerate(pairs))
    target = draw(st.one_of(_FIELDS, st.sampled_from([e.vec for e in closure] or [(Fraction(1),) * 3])))
    alpha0 = (x0, y0)
    entry = ClosureEntry(target, tuple(map(Fraction, alpha0)), "target")
    return PowerSets(ExponentScheme.product(2), (), ((alpha0, entry),), closure)


@settings(max_examples=200, deadline=None)
@given(_closures())
def test_sweep_matches_per_sector_loop_on_arbitrary_closures(power_sets):
    _assert_sweep_matches_per_sector_loop(power_sets)


@settings(max_examples=60, deadline=None)
@given(_h1_specs())
def test_sweep_matches_per_sector_loop_on_random_h1_specs(spec):
    _assert_sweep_matches_per_sector_loop(pure_closure_heisenberg(xhat_expansion(spec)))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(_EXPONENTS[1:]), st.sampled_from(_EXPONENTS))
def test_sweep_matches_per_sector_loop_on_scalar_control(rng, e11, e12):
    # nu = 2 scalar control runs the sweep on the pure set, with one-dimensional fields
    scheme = ExponentScheme.from_rows([[e11, e12], [0, 1]])
    w = scalar_polynomial_expansion(_random_poly(rng), scheme)
    pure, nonpure = _split_pure(w, "X")
    _assert_sweep_matches_per_sector_loop(PowerSets(scheme, pure, nonpure, pure))


@pytest.mark.parametrize("top", range(1, 13))
def test_sweep_matches_per_sector_loop_on_dense_h1(top):
    power_sets = pure_closure_heisenberg(xhat_expansion(parse_problem_spec(_dense_h1_text(top)).gamma))
    with patch.object(criteria, "_solve_on_pivots", wraps=criteria._solve_on_pivots) as solve:
        _assert_sweep_matches_per_sector_loop(power_sets)
    sectors = sum(
        len(per_sector_condition(alpha0, e.vec, power_sets)[1].sectors) for alpha0, e in power_sets.nonpure
    )
    # every dense spec is bounded; the sweep solves once per run of sectors
    if top >= 8:
        assert solve.call_count * 10 < sectors


# -- witness / certificate audits ------------------------------------------------


def _brute_force_all_normals(spec: GammaSpec, grid: int = 1000) -> bool:
    """True iff the supporting-line condition holds on a fine normal grid."""
    xh = xhat_expansion(spec)
    ps = _fixed_point_closure(xh)
    for alpha0, entry in ps.nonpure:
        d0 = entry.degree
        for j in range(grid + 1):
            b = (Fraction(j, grid), Fraction(grid - j, grid))
            bound = b[0] * d0[0] + b[1] * d0[1]
            members = [
                e.vec
                for e in ps.closure
                if b[0] * e.degree[0] + b[1] * e.degree[1] <= bound
            ]
            if express_in_span(members, entry.vec) is None:
                return False
    return True


def test_witness_validity_brute_force():
    cases = [
        heis("0", "0", "s^3 + t^3 + s*t"),
        heis("0", "0", "s*t"),
        heis("s", "t", "s*t"),
        heis("0", "0", "s + s*t"),
        heis("s^2", "t^2", "s*t"),
        heis("s^2", "t^2", "s^2*t^2"),
        heis("s^3", "t^2", "s^2*t"),
    ]
    rng = random.Random(909)
    for _ in range(8):
        cases.append(
            GammaSpec.heisenberg(ZERO, ZERO, _random_poly(rng, max_deg=4))
        )
    for spec in cases:
        verdict = heisenberg_verdict(spec)
        brute = _brute_force_all_normals(spec)
        assert (verdict.outcome is Outcome.BOUNDED) == brute, spec.polynomials
        if verdict.outcome is Outcome.UNBOUNDED:
            # the reported normal itself must witness the span failure
            w = verdict.witness
            ps = _fixed_point_closure(xhat_expansion(spec))
            d0 = degree(w.alpha0, ps.scheme)
            bound = w.normal[0] * d0[0] + w.normal[1] * d0[1]
            members = [
                e.vec
                for e in ps.closure
                if w.normal[0] * e.degree[0] + w.normal[1] * e.degree[1] <= bound
            ]
            target = xhat_expansion(spec).terms[w.alpha0]
            assert express_in_span(members, target) is None


def test_certificates_re_verify_exactly():
    for spec in (heis("s", "t", "s*t"), heis("0", "0", "s + s*t"), heis("s^2", "t^2", "s^2*t^2")):
        verdict = heisenberg_verdict(spec)
        assert verdict.outcome is Outcome.BOUNDED
        ps = pure_closure_heisenberg(xhat_expansion(spec))
        labels = {e.label: e.vec for e in ps.closure}
        for cert in verdict.certificates:
            target = xhat_expansion(spec).terms[cert.alpha0]
            for sector in cert.sectors:
                total = _combination(sector.coefficients, [labels[m] for m in sector.members])
                assert total == target


def test_sector_normals_cover_and_order():
    diffs = [(Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2))]
    normals = sector_normals(diffs)
    # three sectors: [(1,0),(1,2)], [(1,2),(2,1)], [(2,1),(0,1)]
    assert len(normals) == 3
    slopes = [n[1] / n[0] for n in normals]
    assert slopes == sorted(slopes)


_DIFF_ENTRIES = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_DIFF_ENTRIES, _DIFF_ENTRIES), max_size=12), st.integers(1, 50))
def test_sector_normals_match_fraction_slopes_at_any_scale(diffs, factor):
    expected = _fraction_sector_normals(diffs)
    normals = sector_normals(diffs)
    assert normals == expected
    assert all(type(v) is Fraction for n in normals for v in n)
    # clearing the differences to integers by any positive scale moves no normal
    scale = factor * lcm(*(v.denominator for d in diffs for v in d))
    assert sector_normals([tuple(int(v * scale) for v in d) for d in diffs]) == expected

