import random
from fractions import Fraction

import pytest

from mpradon.symbolic import (
    HEISENBERG_BASIS,
    LINE_BASIS,
    BasisVector,
    Polynomial,
)
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


def test_basis_vector_heisenberg_structure():
    x = BasisVector((1, 0, 0), HEISENBERG_BASIS)
    y = BasisVector((0, 1, 0), HEISENBERG_BASIS)
    t = BasisVector((0, 0, 1), HEISENBERG_BASIS)
    assert x.bracket(y) == t
    assert y.bracket(x) == -t
    assert x.bracket(t).is_zero() and y.bracket(t).is_zero()


def test_basis_bracket_matches_coordinate_realization():
    rng = random.Random(5)
    for _ in range(25):
        v = BasisVector(tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)), HEISENBERG_BASIS)
        w = BasisVector(tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)), HEISENBERG_BASIS)
        direct = as_poly_field(v.bracket(w))
        realized = lie_bracket(as_poly_field(v), as_poly_field(w))
        assert direct == realized


def test_line_basis_is_abelian():
    v = BasisVector((Fraction(3),), LINE_BASIS)
    w = BasisVector((Fraction(-2),), LINE_BASIS)
    assert v.bracket(w).is_zero()
    assert lie_bracket(as_poly_field(v), as_poly_field(w)).is_zero()


def test_parallel_ratio():
    v = BasisVector((2, 4, 0), HEISENBERG_BASIS)
    w = BasisVector((1, 2, 0), HEISENBERG_BASIS)
    assert v.parallel_ratio(w) == 2
    assert w.parallel_ratio(v) == Fraction(1, 2)
    u = BasisVector((1, 0, 0), HEISENBERG_BASIS)
    assert v.parallel_ratio(u) is None
