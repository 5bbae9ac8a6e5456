import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpradon.symbolic import Polynomial
from oracles import parse_polynomial, substitute_scaled

ST = ("s", "t")


def P(text: str) -> Polynomial:
    return Polynomial.parse(text, ST)


def test_parse_basic():
    p = P("3*s^2*t - 1/2*s*t^3")
    assert p.terms == {(2, 1): Fraction(3), (1, 3): Fraction(-1, 2)}


def test_parse_signs_and_whitespace():
    assert P(" -s + 2*t ") == P("-s+2*t")
    assert P("- -s") == P("s")


def test_parse_rejects_garbage():
    for bad in ("s t", "3s", "s^", "s^t", "*s", "s*", "q + t", "1/0", ""):
        with pytest.raises(ValueError):
            P(bad)


def test_parse_names_a_misplaced_operator():
    for bad, op in (("s*/0", "/"), ("s+/3", "/"), ("^2", "^"), ("s*^2", "^")):
        with pytest.raises(ValueError, match=re.escape(f"misplaced '{op}'")):
            P(bad)


# messages as the parser gave them before it tokenized in one scan
_PARSE_ERRORS = [
    (" s + $ ", "unexpected character at position 4: ' $ '"),
    ("s + t $", "unexpected character at position 5: ' $'"),
    ("s +\n t #", "unexpected character at position 6: ' #'"),
    ("é", "unexpected character at position 0: 'é'"),
    ("  ", "empty polynomial text"),
    (" 1/0 * s", "zero denominator"),
    ("s + 3/0", "zero denominator"),
    ("s^", "expected integer exponent after '^'"),
    ("s^ t ", "expected integer exponent after '^'"),
    ("s *", "dangling operator at end of term"),
    ("s * * t", "misplaced '*'"),
    ("  s\t+ 1/", "expected denominator after '/'"),
    ("s/2", "missing '*' before '/'"),
    ("2 s", "missing '*' before 's'"),
    (" u + s", "unknown variable 'u'; expected one of ['s', 't']"),
    ("s + ^2", "misplaced '^'"),
]


@pytest.mark.parametrize("text, message", _PARSE_ERRORS)
def test_parse_error_messages(text, message):
    with pytest.raises(ValueError) as info:
        P(text)
    assert str(info.value) == message


def test_parse_checks_the_variable_names_first():
    for names in (("s", "s"), ()):
        with pytest.raises(ValueError, match="distinct names"):
            Polynomial.parse("t", names)


def test_print_round_trip_examples():
    for text in ("s*t", "s^3 + t^3 + s*t", "s + s*t", "-1/2*s*t^3 + 3*s^2*t", "0"):
        p = P(text)
        assert Polynomial.parse(str(p), ST) == p


def test_canonical_display_order():
    # graded-lex descending: higher total degree first, then s-heavier first
    assert str(P("t + s + s*t")) == "s*t + s + t"
    assert str(P("t^3 + s^3 + s*t")) == "s^3 + t^3 + s*t"


def test_arithmetic():
    p, q = P("s + t"), P("s - t")
    assert p * q == P("s^2 - t^2")
    assert (p + q) == P("2*s")
    assert p - p == Polynomial.zero(ST)
    assert (P("s") ** 3) == P("s^3")
    assert Fraction(1, 2) * P("2*s") == P("s")


def test_partial_derivative():
    p = P("3*s^2*t - 1/2*s*t^3")
    assert p.partial("s") == P("6*s*t - 1/2*t^3")
    assert p.partial("t") == P("3*s^2 - 3/2*s*t^2")


def test_scaling_derivative_definition():
    # oracle: embed eps as an extra variable, differentiate, set eps = 1
    p = P("s^3 + t^3 + s*t")
    vars3 = ("eps", "s", "t")
    lifted = Polynomial(
        vars3, {(sum(a), a[0], a[1]): c for a, c in p.terms.items()}
    )
    deps = lifted.partial("eps")
    collapsed: dict[tuple[int, int], Fraction] = {}
    for (k, a, b), c in deps.terms.items():
        collapsed[(a, b)] = collapsed.get((a, b), Fraction(0)) + c  # eps = 1
    assert Polynomial(ST, collapsed) == p.scaling_derivative()
    assert p.scaling_derivative() == P("3*s^3 + 3*t^3 + 2*s*t")


def test_substitute_scaled():
    p = P("s^2 + s*t")
    assert substitute_scaled(p, [2, 3]) == P("4*s^2 + 6*s*t")
    assert substitute_scaled(p, [Fraction(1, 2), 1]) == P("1/4*s^2 + 1/2*s*t")


def test_evaluation_exact_and_float():
    p = P("s^2 - 1/3*t")
    assert p((Fraction(2), Fraction(3))) == Fraction(3)
    assert p((2.0, 3.0)) == pytest.approx(3.0)


def test_zero_coefficients_dropped():
    p = Polynomial(ST, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in p.terms
    assert p + (-p) == Polynomial.zero(ST)


def test_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Polynomial(ST, {(1, 0): 0.5})


@st.composite
def polynomials(draw):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        exps = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
        num = draw(st.integers(-20, 20))
        den = draw(st.integers(1, 9))
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    return Polynomial(ST, terms)


@settings(max_examples=150, deadline=None)
@given(polynomials())
def test_print_parse_round_trip_property(p):
    assert Polynomial.parse(str(p), ST) == p


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials())
def test_ring_axioms_sample(p, q):
    assert p + q == q + p
    assert p - q == p + (-q) and (p - q) + q == p
    assert p * q == q * p
    assert (p + q).partial(0) == p.partial(0) + q.partial(0)
    assert (p * q).partial(0) == p.partial(0) * q + p * q.partial(0)


def _assert_valid(r: Polynomial) -> None:
    """r is what the validating constructor makes of its own terms."""
    assert r == Polynomial(r.variables, dict(r.terms))
    assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
    assert all(type(e) is tuple and len(e) == r.nvars for e in r.terms)
    assert Polynomial.parse(str(r), r.variables) == r


_SCALARS = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@settings(max_examples=100, deadline=None)
@given(polynomials(), polynomials(), _SCALARS)
def test_arithmetic_results_are_valid_polynomials(p, q, k):
    results = [p + q, p - q, p - p, p * q, p * k, k * p, -p, p + k, k - p]
    results += [p.partial(0), p.partial("t"), p.scaling_derivative(), (p * q).scaling_derivative()]
    for r in results:
        _assert_valid(r)


# Raw text: digits, variable names (known and unknown), the operators,
# spaces and stray characters, run together in any order.
_RAW_CHARACTERS = list("0123456789") + ["s", "t"] * 5 + ["s1", "x"] + list("+-*^") * 3 + list("/ ") + list("(.e\té")
_RAW_TEXT = st.lists(st.sampled_from(_RAW_CHARACTERS), max_size=24).map("".join)


@settings(max_examples=200, deadline=None)
@given(_RAW_TEXT)
def test_parse_raw_text_raises_only_value_error_and_round_trips(text):
    try:
        p = Polynomial.parse(text, ST)
    except ValueError:
        return
    _assert_valid(p)  # the parser hands its terms over unchecked


# Text drawn from digits, the variable names (and one that is not), the
# operators, whitespace and stray characters, run together in any order.
_ORACLE_CHARACTERS = list("0123456789") + ["s", "t", "u", "s1"] * 3 + list("+-*/^") * 3 + list(" \t\n") + list("$#é.(")
_ORACLE_TEXT = st.lists(st.sampled_from(_ORACLE_CHARACTERS), max_size=30).map("".join)
# Sums of well-formed terms, so that like terms meet, add up and cancel.
_ORACLE_TERM = st.tuples(st.sampled_from(["", "2*", "1/2*", "3/4*", "0*", "-"]), st.sampled_from(["s", "t", "s^2", "s*t", "u^2*s", "1"]))
_ORACLE_SUM = st.lists(st.tuples(st.sampled_from([" + ", " - ", "-"]), _ORACLE_TERM), min_size=1, max_size=8).map(
    lambda terms: "".join(op + c + m for op, (c, m) in terms)
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_ORACLE_TEXT, _ORACLE_SUM), st.sampled_from([ST, ("s", "t", "u")]))
def test_parse_matches_the_token_scan_oracle(text, variables):
    # the parser tokenizes with one findall and a coverage check; the oracle
    # checks each token's start as it scans
    try:
        expected = parse_polynomial(text, variables)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            Polynomial.parse(text, variables)
        assert str(info.value) == str(exc)
        return
    p = Polynomial.parse(text, variables)
    assert p == expected and list(p.terms.items()) == list(expected.terms.items())
