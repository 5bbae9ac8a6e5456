import random
from fractions import Fraction

import pytest

from mpradon.criteria import Outcome, scalar_control_verdict
from mpradon.dilations import ExponentScheme
from mpradon.symbolic import (
    HEISENBERG_BASIS,
    LINE_BASIS,
    Polynomial,
    WExpansion,
)
from mpradon.symbolic.fields import field_text, heisenberg_bracket
from oracles import PolyVectorField, as_poly_field, lie_bracket

X12 = ("x1", "x2")


def field(*component_texts: str) -> PolyVectorField:
    variables = tuple(f"x{i+1}" for i in range(len(component_texts)))
    return PolyVectorField(
        tuple(Polynomial.parse(c, variables) for c in component_texts)
    )


def test_bracket_translation_example():
    # [d/dx1, x1 d/dx2] = d/dx2
    a = field("1", "0")
    b = field("0", "x1")
    assert lie_bracket(a, b) == field("0", "1")


def test_bracket_self_is_zero():
    rng = random.Random(11)
    for _ in range(20):
        comps = tuple(
            Polynomial(
                X12,
                {
                    (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-5, 5))
                    for _ in range(3)
                },
            )
            for _ in range(2)
        )
        a = PolyVectorField(comps)
        assert lie_bracket(a, a).is_zero()


def test_bracket_rotation_example():
    # [x2 d/dx1, x1 d/dx2] = x2 d/dx2 - x1 d/dx1
    a = field("x2", "0")
    b = field("0", "x1")
    assert lie_bracket(a, b) == field("-x1", "x2")


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        lie_bracket(field("1", "0"), field("1", "0", "0"))


def _random_field(rng: random.Random, max_deg: int = 2) -> PolyVectorField:
    comps = []
    for _ in range(2):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
            terms[e] = Fraction(rng.randint(-4, 4))
        comps.append(Polynomial(X12, terms))
    return PolyVectorField(tuple(comps))


def test_bracket_antisymmetry_random():
    rng = random.Random(7)
    for _ in range(30):
        a, b = _random_field(rng), _random_field(rng)
        assert lie_bracket(a, b) == -lie_bracket(b, a)


def test_jacobi_identity_random():
    rng = random.Random(13)
    for _ in range(15):
        a, b, c = (_random_field(rng) for _ in range(3))
        total = (
            lie_bracket(a, lie_bracket(b, c))
            + lie_bracket(b, lie_bracket(c, a))
            + lie_bracket(c, lie_bracket(a, b))
        )
        assert total.is_zero()


def _heisenberg_bracket_field(u, v) -> tuple[Fraction, ...]:
    """[u, v] as coordinates in {X, Y, T}: a multiple of the central T."""
    return (Fraction(0), Fraction(0), Fraction(heisenberg_bracket(u, v)))


def test_heisenberg_bracket_structure_constants():
    x, y, t = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert _heisenberg_bracket_field(x, y) == t
    assert _heisenberg_bracket_field(y, x) == (0, 0, -1)
    for u in (x, y, t):
        assert heisenberg_bracket(u, t) == heisenberg_bracket(t, u) == 0


def test_heisenberg_bracket_matches_coordinate_realization():
    rng = random.Random(5)
    for _ in range(25):
        v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        w = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        direct = as_poly_field(_heisenberg_bracket_field(v, w), HEISENBERG_BASIS)
        realized = lie_bracket(as_poly_field(v, HEISENBERG_BASIS), as_poly_field(w, HEISENBERG_BASIS))
        assert direct == realized


def test_line_basis_is_abelian():
    v = as_poly_field((Fraction(3),), LINE_BASIS)
    w = as_poly_field((Fraction(-2),), LINE_BASIS)
    assert lie_bracket(v, w).is_zero()


@pytest.mark.parametrize(
    "coords, basis, text",
    [
        ((1, 0, 0), HEISENBERG_BASIS, "X"),
        ((-1, 1, 0), HEISENBERG_BASIS, "-X + Y"),
        ((1, -1, 0), HEISENBERG_BASIS, "X - Y"),
        ((0, 2, Fraction(-1, 2)), HEISENBERG_BASIS, "2*Y - 1/2*T"),
        ((Fraction(-3, 4), 0, 1), HEISENBERG_BASIS, "-3/4*X + T"),
        ((0, 0, 0), HEISENBERG_BASIS, "0"),
        ((Fraction(-2),), LINE_BASIS, "-2*d/dx"),
        ((Fraction(-1),), LINE_BASIS, "-d/dx"),
        ((Fraction(0),), LINE_BASIS, "0"),
    ],
)
def test_field_text(coords, basis, text):
    assert field_text(tuple(map(Fraction, coords)), basis) == text


def _two_field_verdict(v, v0) -> Outcome:
    """Scalar control on s * v0 + t * v: both degrees are pure, so the
    verdict is bounded exactly when the scalar reduction applies."""
    w = WExpansion(ExponentScheme.product(2), HEISENBERG_BASIS, {(1, 0): v0, (0, 1): v})
    return scalar_control_verdict(w).outcome


PARALLEL = [
    ((2, 4, 0), (1, 2, 0)),
    ((1, 2, 0), (2, 4, 0)),
    ((2, 0, 0), (1, 0, 0)),
    ((0, 0, Fraction(-1, 3)), (0, 0, 5)),
    ((-1, 1, -1), (2, -2, 2)),
]
NOT_PARALLEL = [
    ((2, 4, 0), (1, 0, 0)),
    ((0, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (0, 0, 1)),
    ((1, 2, 3), (1, 2, 4)),
]


def test_scalar_control_tests_parallelism_by_minors():
    for v, v0 in PARALLEL:
        assert _two_field_verdict(v, v0) is Outcome.BOUNDED, (v, v0)
    for v, v0 in NOT_PARALLEL:
        assert _two_field_verdict(v, v0) is Outcome.INCONCLUSIVE, (v, v0)
