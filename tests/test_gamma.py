"""W / exponential expansion tests.

The Heisenberg W pipeline (closed step-2 form) is cross-checked against an
independent exact oracle that works entirely in explicit exponential
coordinates: build gamma_{eps s} o gamma_s^{-1} from the group product,
differentiate in eps symbolically, set eps = 1, and re-express the result in
the left-invariant frame.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpradon.dilations import DimensionMismatch, ExponentScheme
from mpradon.symbolic import (
    HEISENBERG_BASIS,
    GammaSpec,
    Polynomial,
    UnsupportedFamily,
    WExpansion,
    w_expansion,
    xhat_expansion,
)
from oracles import verify_taylor_relation, w_expansion_by_polynomials

ST = ("s", "t")


def P(text: str) -> Polynomial:
    return Polynomial.parse(text, ST)


ZERO = Polynomial.zero(ST)


# -- independent oracle ---------------------------------------------------


def _lift(q: Polynomial, allvars, scale_eps: bool) -> Polynomial:
    pad = (0,) * (len(allvars) - 1 - q.nvars)
    terms = {}
    for a, c in q.terms.items():
        e = ((sum(a) if scale_eps else 0),) + tuple(a) + pad
        terms[e] = c
    return Polynomial(allvars, terms)


def _gmul(a, b):
    x1, y1, z1 = a
    x2, y2, z2 = b
    return (x1 + x2, y1 + y2, z1 + z2 + (x1 * y2 - x2 * y1) * Fraction(1, 2))


def heisenberg_w_by_group_law(spec: GammaSpec) -> dict:
    """W coefficients per multi-index, from the explicit group product."""
    svars = spec.variables
    allvars = ("eps",) + svars + ("x", "y", "z")
    xi = tuple(Polynomial.variable(allvars, v) for v in ("x", "y", "z"))
    inv = tuple(-_lift(q, allvars, False) for q in spec.polynomials)
    m_eps = tuple(_lift(q, allvars, True) for q in spec.polynomials)
    # gamma_s(xi) = xi . exp(P(s)); so gamma_{eps s}(gamma_s^{-1}(xi)) = (xi . -P) . P(eps s)
    moved = _gmul(_gmul(xi, inv), m_eps)

    def d_eps_at_one(poly: Polynomial) -> Polynomial:
        deriv = poly.partial("eps")
        collapsed: dict[tuple, Fraction] = {}
        for e, c in deriv.terms.items():
            key = e[1:]
            collapsed[key] = collapsed.get(key, Fraction(0)) + c
        return Polynomial(allvars[1:], collapsed)

    wx, wy, wz = (d_eps_at_one(comp) for comp in moved)
    # frame change: a X + b Y + c T = a d/dx + b d/dy + (c - a y/2 + b x/2) d/dz
    rest = allvars[1:]
    y = Polynomial.variable(rest, "y")
    x = Polynomial.variable(rest, "x")
    c_poly = wz + y * wx * Fraction(1, 2) - x * wy * Fraction(1, 2)
    coeffs: dict[tuple, list[Fraction]] = {}
    for i, comp in enumerate((wx, wy, c_poly)):
        for e, c in comp.terms.items():
            s_part, xyz_part = e[: len(svars)], e[len(svars) :]
            assert not any(xyz_part), "W must be left-invariant: no x,y,z dependence"
            coeffs.setdefault(s_part, [Fraction(0)] * 3)[i] = c
    return {a: tuple(v) for a, v in coeffs.items() if any(v)}


def _random_heisenberg(rng: random.Random, max_deg: int = 5) -> GammaSpec:
    polys = []
    for _ in range(3):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
            if sum(e) == 0 or sum(e) > max_deg:
                continue
            terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        polys.append(Polynomial(ST, terms))
    return GammaSpec.heisenberg(*polys)


def _random_translation(rng: random.Random, max_deg: int = 5) -> GammaSpec:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        if sum(e) == 0 or sum(e) > max_deg:
            continue
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return GammaSpec.translation_line(Polynomial(ST, terms))


# -- translation family ----------------------------------------------------


def test_w_translation_paper_example():
    # gamma = x + s*t means p = -s*t, and W = 2*s*t d/dx
    spec = GammaSpec.translation_line(P("-s*t"))
    w = w_expansion(spec)
    assert set(w.terms) == {(1, 1)}
    assert w.terms[(1, 1)] == (Fraction(2),)


def test_w_translation_zero():
    assert not w_expansion(GammaSpec.translation_line(ZERO)).terms


def test_w_translation_hand_value():
    spec = GammaSpec.translation_line(P("s^3 + t^3 + s*t"))
    w = w_expansion(spec)
    assert w.terms[(3, 0)] == (Fraction(-3),)
    assert w.terms[(0, 3)] == (Fraction(-3),)
    assert w.terms[(1, 1)] == (Fraction(-2),)


def test_w_translation_rejects_constant_term():
    with pytest.raises(ValueError):
        GammaSpec.translation_line(P("1 + s"))


# -- heisenberg family ------------------------------------------------------


def test_w_heisenberg_linear():
    spec = GammaSpec.heisenberg(P("s"), P("t"), ZERO)
    w = w_expansion(spec)
    assert w.terms[(1, 0)] == (1, 0, 0)
    assert w.terms[(0, 1)] == (0, 1, 0)
    assert (1, 1) not in w.terms


def test_w_heisenberg_central():
    spec = GammaSpec.heisenberg(ZERO, ZERO, P("s*t"))
    w = w_expansion(spec)
    assert set(w.terms) == {(1, 1)}
    assert w.terms[(1, 1)] == (0, 0, 2)


def test_w_heisenberg_bracket_term_vanishes_for_st():
    # P1 Pdot2 - P2 Pdot1 = s*t - t*s = 0, so the T part is just Pdot3 = 2st
    spec = GammaSpec.heisenberg(P("s"), P("t"), P("s*t"))
    w = w_expansion(spec)
    assert w.terms[(1, 1)] == (0, 0, 2)


def test_w_heisenberg_nonzero_correction():
    # (P1, P2, P3) = (s, s*t, 0): the step-2 term contributes -1/2 s^2 t T
    spec = GammaSpec.heisenberg(P("s"), P("s*t"), ZERO)
    w = w_expansion(spec)
    assert w.terms[(2, 1)] == (0, 0, Fraction(-1, 2))


def test_w_heisenberg_matches_group_law_oracle_examples():
    for polys in (
        ("s", "t", "0"),
        ("0", "0", "s*t"),
        ("s", "t", "s*t"),
        ("s", "s*t", "0"),
        ("s^2 + t", "s - t^3", "s*t + t^2"),
    ):
        spec = GammaSpec.heisenberg(*(P(q) for q in polys))
        w = w_expansion(spec)
        oracle = heisenberg_w_by_group_law(spec)
        assert dict(w.terms) == oracle


def test_w_heisenberg_matches_group_law_oracle_random():
    rng = random.Random(2024)
    for _ in range(40):
        spec = _random_heisenberg(rng)
        w = w_expansion(spec)
        oracle = heisenberg_w_by_group_law(spec)
        assert dict(w.terms) == oracle


# -- exponential read-off ----------------------------------------------------


def test_xhat_translation_example():
    spec = GammaSpec.translation_line(P("s*t"))  # gamma = x - s*t
    xh = xhat_expansion(spec)
    assert xh.terms[(1, 1)] == (Fraction(-1),)


def test_xhat_identity_is_empty():
    assert not xhat_expansion(GammaSpec.translation_line(ZERO)).terms


def test_xhat_heisenberg_read_off():
    spec = GammaSpec.heisenberg(P("s"), P("t"), P("s*t"))
    xh = xhat_expansion(spec)
    assert xh.terms[(1, 0)] == (1, 0, 0)
    assert xh.terms[(0, 1)] == (0, 1, 0)
    assert xh.terms[(1, 1)] == (0, 0, 1)


# -- Taylor relation ----------------------------------------------------------


def test_taylor_relation_translation_exact():
    rng = random.Random(99)
    for _ in range(30):
        spec = _random_translation(rng)
        report = verify_taylor_relation(spec)
        assert report.passed, report.residuals
        # and indeed X_alpha = |alpha| Xhat_alpha exactly on the line
        w, xh = w_expansion(spec), xhat_expansion(spec)
        for a, v in w.terms.items():
            assert v == tuple(sum(a) * c for c in xh.terms[a])


def test_taylor_relation_simple_cases():
    spec = GammaSpec.heisenberg(P("s"), P("t"), ZERO)
    assert verify_taylor_relation(spec).passed
    # X_(1,0) = 1 * Xhat_(1,0)
    assert w_expansion(spec).terms[(1, 0)] == xhat_expansion(spec).terms[(1, 0)]


def test_taylor_relation_correction_bookkeeping():
    # (s, t, s*t): X_(1,1) = 2 T while Xhat_(1,1) = T and V_(1,1) = 0
    spec = GammaSpec.heisenberg(P("s"), P("t"), P("s*t"))
    assert verify_taylor_relation(spec).passed
    assert w_expansion(spec).terms[(1, 1)] == (0, 0, 2)
    assert xhat_expansion(spec).terms[(1, 1)] == (0, 0, 1)


def test_taylor_relation_random_corpus():
    rng = random.Random(31337)
    for _ in range(60):
        assert verify_taylor_relation(_random_heisenberg(rng)).passed


# -- misc ---------------------------------------------------------------------


def test_unsupported_family_rejected():
    with pytest.raises(UnsupportedFamily):
        GammaSpec("parabola", ExponentScheme.product(2), (P("s"),))


def test_w_expansion_zero_at_origin():
    # expansions start at |alpha| > 0 by construction
    spec = GammaSpec.heisenberg(P("s"), P("t"), P("s*t"))
    assert all(sum(a) > 0 for a in w_expansion(spec).terms)


def test_wexpansion_terms_are_fraction_coordinates_in_its_basis():
    scheme = ExponentScheme.product(2)
    w = WExpansion(scheme, HEISENBERG_BASIS, {(1, 0): [1, 0, 2], (0, 1): (0, 0, 0)})
    assert dict(w.terms) == {(1, 0): (1, 0, 2)}  # the all-zero term is dropped
    assert all(type(c) is Fraction for c in w.terms[(1, 0)])
    # Fraction coordinates are kept as they are; a mix is converted throughout
    fractions = [Fraction(1, 2), Fraction(0), Fraction(-3)]
    w = WExpansion(scheme, HEISENBERG_BASIS, {(1, 0): fractions, (0, 1): [Fraction(1, 2), 1, 0]})
    assert type(w.terms[(1, 0)]) is tuple and all(a is b for a, b in zip(w.terms[(1, 0)], fractions))
    assert w.terms[(0, 1)] == (Fraction(1, 2), 1, 0)
    assert all(type(c) is Fraction for c in w.terms[(0, 1)])
    for coords in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="coordinate count"):
            WExpansion(scheme, HEISENBERG_BASIS, {(1, 0): coords})
    with pytest.raises(ValueError, match=r"\|alpha\| > 0"):
        WExpansion(scheme, HEISENBERG_BASIS, {(0, 0): (1, 0, 0)})


def test_wexpansion_rejects_float_coordinates_as_polynomial_does():
    # a float was taken at its binary value (0.1 became 3602879701896397/36028797018963968),
    # and NaN ended in "cannot convert NaN to integer ratio"
    scheme = ExponentScheme.product(2)
    for bad in (0.1, 0.0, float("nan"), float("inf")):
        for coords in ([bad, 0, 0], (Fraction(1), bad, 0)):
            with pytest.raises(TypeError, match="^polynomial coefficients must be exact rationals, got float$"):
                WExpansion(scheme, HEISENBERG_BASIS, {(1, 0): coords})


def test_wexpansion_checks_the_multi_index_of_a_zero_field():
    # a key whose field was zero was dropped unchecked, so these returned an empty expansion
    scheme = ExponentScheme.product(2)
    zero = (0, 0, 0)
    with pytest.raises(DimensionMismatch, match="multi-index has 3 components, scheme expects 2"):
        WExpansion(scheme, HEISENBERG_BASIS, {(1, 0, 0): zero, (-1, 2): zero})
    with pytest.raises(ValueError, match="nonnegative integers"):
        WExpansion(scheme, HEISENBERG_BASIS, {(-1, 2): zero})
    with pytest.raises(ValueError, match="nonnegative integers"):
        WExpansion(scheme, HEISENBERG_BASIS, {(1, 0): (1, 0, 0), (-1, 2): zero})
    # the same keys with a nonzero field raise the same errors
    with pytest.raises(DimensionMismatch, match="multi-index has 3 components, scheme expects 2"):
        WExpansion(scheme, HEISENBERG_BASIS, {(1, 0, 0): (1, 0, 0)})
    with pytest.raises(ValueError, match="nonnegative integers"):
        WExpansion(scheme, HEISENBERG_BASIS, {(-1, 2): (1, 0, 0)})


def test_wexpansion_support_order():
    spec = GammaSpec.heisenberg(P("s + s*t"), P("t"), ZERO)
    assert xhat_expansion(spec).support() == [(1, 0), (0, 1), (1, 1)]


def test_expansions_are_built_once_per_spec_and_read_only():
    spec = GammaSpec.heisenberg(P("s + s*t"), P("t"), P("s^2*t"))
    w, xhat = w_expansion(spec), xhat_expansion(spec)
    assert w_expansion(spec) is w and xhat_expansion(spec) is xhat
    # an equal spec is a separate object with its own, equal expansions
    twin = GammaSpec.heisenberg(P("s + s*t"), P("t"), P("s^2*t"))
    assert twin == spec and w_expansion(twin) is not w and w_expansion(twin) == w
    with pytest.raises(TypeError):
        w.terms[(5, 5)] = w.terms[(1, 0)]
    assert w == w_expansion(twin)


# -- W against the step-2 term as Polynomial products ----------------------------

_COEFFICIENTS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
_EXPONENT_ENTRIES = st.sampled_from([0, 0, 1, 2, Fraction(1, 2), Fraction(3, 4), Fraction(5, 3)])


@st.composite
def _curve_specs(draw):
    n = draw(st.sampled_from([2, 3]))
    variables = ("s", "t", "u")[:n]
    if draw(st.booleans()):
        scheme = ExponentScheme.product(n)
    else:
        nu = draw(st.integers(1, 3))
        rows = [[draw(_EXPONENT_ENTRIES) for _ in range(nu)] for _ in range(n)]
        for i in range(max(n, nu)):  # every row and every column gets a nonzero entry
            if rows[i % n][i % nu] == 0:
                rows[i % n][i % nu] = 1
        scheme = ExponentScheme.from_rows(rows)
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(any)

    def polynomial():
        return Polynomial(variables, draw(st.dictionaries(exponents, _COEFFICIENTS, max_size=5)))

    if draw(st.booleans()):
        return GammaSpec.heisenberg(polynomial(), polynomial(), polynomial(), scheme)
    return GammaSpec.translation_line(polynomial(), scheme)


@settings(max_examples=150, deadline=None)
@given(_curve_specs())
def test_w_matches_the_polynomial_product_oracle(spec):
    # the step-2 term is one integer pass; the oracle multiplies Polynomials and
    # grades through the validating constructor
    w, expected = w_expansion(spec), w_expansion_by_polynomials(spec)
    assert w == expected
    assert list(w.terms.items()) == list(expected.terms.items())
    assert list(w.degrees.items()) == list(expected.degrees.items())
    assert all(type(c) is Fraction for coords in w.terms.values() for c in coords)
    assert all(type(v) is Fraction for d in w.degrees.values() for v in d)
