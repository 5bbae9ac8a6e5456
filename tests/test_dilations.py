import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpradon.dilations import (
    DimensionMismatch,
    ExponentScheme,
    _pow,
    degree,
    dilation_factors,
    is_pure,
)
from mpradon.quadrature import integrate_adaptive
from mpradon.symbolic import WExpansion
from oracles import dilate_point, scale_function

PRODUCT2 = ExponentScheme.product(2)


def test_scheme_validation():
    with pytest.raises(ValueError):
        ExponentScheme.from_rows([[0, 0], [1, 0]])  # zero row
    with pytest.raises(ValueError):
        ExponentScheme.from_rows([[1, 0], [1, 0]])  # zero column
    with pytest.raises(ValueError):
        ExponentScheme.from_rows([[1, -1], [0, 1]])  # negative exponent
    with pytest.raises(TypeError):
        ExponentScheme.from_rows([[0.5, 0], [0, 1]])  # float is not exact
    with pytest.raises(ValueError, match="zero denominator"):
        ExponentScheme.from_rows([["1/0", 0], [0, 1]])
    assert ExponentScheme.from_rows([["1/2", 0], [0, 1]]).rows[0][0] == Fraction(1, 2)


def test_degree_identity_scheme():
    assert degree((2, 3), PRODUCT2) == (2, 3)


def test_degree_product_kernel_mixed_term():
    # e_1 = (1,0), e_2 = (0,1): the s*t term has degree (1,1)
    assert degree((1, 1), PRODUCT2) == (1, 1)


def test_degree_general_scheme_hand_value():
    scheme = ExponentScheme.from_rows([[2, 1], [0, 3]])
    assert degree((1, 2), scheme) == (2, 7)


def test_degree_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        degree((1, 2, 3), PRODUCT2)


def test_degree_validates_before_its_cached_lookup():
    scheme = ExponentScheme.from_rows([["1/2", 1], [0, 2]])
    assert degree((1, 0), scheme) == (Fraction(1, 2), 1)
    # same key as (1, 0) under == and hash, or same length: each still raises
    with pytest.raises(ValueError):
        degree((1.0, 0), scheme)
    with pytest.raises(ValueError):
        degree((-1, 1), scheme)
    with pytest.raises(DimensionMismatch):
        degree((1,), scheme)
    assert degree([1, 0], scheme) == degree((1, 0), scheme)
    assert degree((1, 0), ExponentScheme.from_rows([["1/2", 1], [0, 2]])) == (Fraction(1, 2), 1)


def test_dilation_factors_validate_before_their_cached_lookup():
    scheme = ExponentScheme.from_rows([["1/2", 1], [0, 2]])
    first = dilation_factors((4.0, 3.0), scheme)
    assert first == (2.0 * 3.0, 9.0)
    assert dilation_factors([4, 3], scheme) is first
    with pytest.raises(ValueError):
        dilation_factors((4.0, -3.0), scheme)
    with pytest.raises(DimensionMismatch):
        dilation_factors((4.0,), scheme)
    assert dilation_factors((4.0, 3.0), ExponentScheme.from_rows([["1/2", 1], [0, 2]])) == first


def test_dilation_factor_overflow_reads_inf():
    scheme = ExponentScheme.from_rows([[2, 0], [0, "3/2"]])
    assert dilation_factors((1e308, 1e308), scheme) == (math.inf, math.inf)
    assert dilation_factors((1e300, 1e100), scheme) == (math.inf, 1e100**1.5)


def test_power_with_an_exponent_beyond_float_range_underflows_or_overflows():
    # float ** int raises OverflowError on converting a 401-digit int, which
    # read as inf even where the power underflows
    huge = Fraction(10**400)
    assert _pow(0.5, huge) == 0.0
    assert _pow(2.0, -huge) == 0.0
    assert _pow(2.0, huge) == math.inf
    assert _pow(0.5, -huge) == math.inf
    assert _pow(1.0, huge) == _pow(1.0, -huge) == 1.0
    assert _pow(0.5, huge / 3) == 0.0
    scheme = ExponentScheme.from_rows([["1" + "0" * 400]])
    assert dilation_factors((0.5,), scheme) == (0.0,)


def test_is_pure():
    assert is_pure((Fraction(2), Fraction(0)))
    assert not is_pure((Fraction(1), Fraction(1)))
    assert is_pure((0, 0, Fraction(5)))
    with pytest.raises(ValueError):
        is_pure((Fraction(0), Fraction(0)))


def test_dilate_point_identity():
    assert dilate_point((1.0, 1.0), (3.5, -2.0), PRODUCT2) == (3.5, -2.0)


def test_dilate_point_product():
    assert dilate_point((2.0, 0.5), (1.0, 1.0), PRODUCT2) == (2.0, 0.5)


def test_dilate_point_single_coordinate_two_params():
    scheme = ExponentScheme.from_rows([[1, 1]])
    assert dilate_point((2.0, 3.0), (1.0,), scheme) == (6.0,)


def test_dilate_point_zero_component_convention():
    # 0^0 = 1: a zero parameter wipes exactly the coordinates it touches
    scheme = ExponentScheme.from_rows([[1, 0], [0, 2]])
    assert dilate_point((0.0, 2.0), (5.0, 1.0), scheme) == (0.0, 4.0)


def test_dilate_point_rejects_negative():
    with pytest.raises(ValueError):
        dilate_point((-1.0, 1.0), (1.0, 1.0), PRODUCT2)


def test_scale_function_identity():
    f = lambda t: t[0] ** 2 + t[1]
    g = scale_function(f, (1.0, 1.0), PRODUCT2)
    assert g((2.0, 3.0)) == f((2.0, 3.0))


def test_scale_function_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale_function(lambda t: 1.0, (0.0, 1.0), PRODUCT2)


def test_scale_function_preserves_integral(mean_one_bump):
    # quadrature oracle on both sides, delta = (2^5, 2^-3), product scheme
    delta = (2.0**5, 2.0**-3)
    f = lambda t: float(mean_one_bump(t[0])) * float(mean_one_bump(t[1]))
    g = scale_function(f, delta, PRODUCT2)
    lo, hi = mean_one_bump.support()

    def axis_integral(func, a, b):
        return integrate_adaptive(
            lambda t: np.array([func(ti) for ti in np.atleast_1d(t)]), a, b, tol=1e-13
        )

    # both integrals factorize axis by axis (tensor integrand); pin the other
    # axis at a fixed interior value and divide it back out
    pin = 0.3
    base = axis_integral(lambda u: f((u, pin)), lo, hi)
    base *= axis_integral(lambda u: f((pin, u)), lo, hi) / f((pin, pin))
    scaled = axis_integral(lambda u: g((u, pin / delta[1])), lo / delta[0], hi / delta[0])
    scaled *= axis_integral(lambda u: g((pin / delta[0], u)), lo / delta[1], hi / delta[1])
    scaled /= g((pin / delta[0], pin / delta[1]))
    assert abs(scaled - base) < 1e-10
    assert base == pytest.approx(1.0, abs=1e-10)


def test_scale_function_support_maps_by_inverse_dilation(mean_zero_bump):
    lo, hi = mean_zero_bump.support()
    scheme = ExponentScheme.product(1)
    g = scale_function(lambda t: float(mean_zero_bump(t[0])), (4.0,), scheme)
    assert g(((lo + hi) / 8,)) != 0.0  # inside the shrunk support
    assert g((hi,)) == 0.0  # outside: 4*hi is past the original support


def test_scale_function_composition_law(mean_zero_bump):
    scheme = PRODUCT2
    f = lambda t: float(mean_zero_bump(t[0]) * mean_zero_bump(t[1]))
    d1, d2 = (2.0, 0.25), (1.5, 3.0)
    once = scale_function(scale_function(f, d1, scheme), d2, scheme)
    both = scale_function(f, (d1[0] * d2[0], d1[1] * d2[1]), scheme)
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.0, 0.6, size=(200, 2))
    for t in pts:
        assert abs(once(t) - both(t)) <= 1e-12 * max(1.0, abs(both(t)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 7), min_size=2, max_size=2),
    st.lists(st.integers(0, 7), min_size=2, max_size=2),
)
def test_degree_additive(alpha, beta):
    scheme = ExponentScheme.from_rows([["1/2", 1], [2, "1/3"]])
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    lhs = degree(gamma, scheme)
    ab = degree(tuple(alpha), scheme), degree(tuple(beta), scheme)
    assert lhs == tuple(x + y for x, y in zip(*ab))


_RATIONAL_ENTRIES = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(0, 12), st.integers(1, 12))
)


@st.composite
def _schemes_and_indices(draw):
    n_t, nu = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_RATIONAL_ENTRIES, min_size=nu, max_size=nu), min_size=n_t, max_size=n_t))
    # a valid scheme needs a nonzero entry in every row and column
    for i in range(n_t):
        rows[i][i % nu] = rows[i][i % nu] or Fraction(1, draw(st.integers(1, 5)))
    for mu in range(nu):
        rows[mu % n_t][mu] = rows[mu % n_t][mu] or Fraction(draw(st.integers(1, 5)), 3)
    alphas = draw(st.lists(st.lists(st.integers(0, 9), min_size=n_t, max_size=n_t), max_size=5))
    return ExponentScheme.from_rows(rows), [tuple(a) for a in alphas]


@settings(max_examples=150, deadline=None)
@given(_schemes_and_indices())
def test_degree_is_the_fraction_sum_of_the_rows(case):
    scheme, alphas = case
    for alpha in alphas:
        expected = tuple(
            sum((a * row[mu] for a, row in zip(alpha, scheme.rows)), Fraction(0))
            for mu in range(scheme.n_params)
        )
        d = degree(alpha, scheme)
        assert d == expected
        assert all(type(v) is Fraction for v in d)


@settings(max_examples=150, deadline=None)
@given(_schemes_and_indices(), st.data())
def test_expansion_terms_are_canonical_and_carry_their_degrees(case, data):
    scheme, alphas = case
    basis = ("X", "Y")
    terms = {
        alpha: tuple(data.draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2)))
        for alpha in alphas
        if any(alpha)
    }
    exp = WExpansion(scheme, basis, terms)
    kept = list(exp.terms)
    assert set(kept) == {alpha for alpha, coords in terms.items() if any(coords)}
    # by total degree, then lex with the first variable heaviest
    for a, b in zip(kept, kept[1:]):
        assert sum(a) < sum(b) or (sum(a) == sum(b) and a > b)
    assert exp.support() == kept == list(exp.degrees)
    for alpha in kept:
        assert exp.degrees[alpha] == degree(alpha, scheme)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=2, max_size=2).filter(lambda a: any(a)))
def test_pure_nonpure_partition(alpha):
    d = degree(tuple(alpha), PRODUCT2)
    assert is_pure(d) != (not is_pure(d))  # exactly one branch holds
    assert is_pure(d) == (alpha[0] == 0 or alpha[1] == 0)
