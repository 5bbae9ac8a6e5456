import json
import math
from fractions import Fraction

import numpy as np
import pytest

from mpradon.bumps import (
    BumpCombination,
    base_moment,
    base_mollifier,
    moment_bump,
    mollifier_derivative,
    tensor_bump,
)
from mpradon.cli import main
from oracles import moment, moment_by_grid


def closed_moment(tb, alpha) -> float:
    """int t^alpha tb: the product of the factors' closed-form 1-D moments."""
    return math.prod(f.moment_closed_form(m) for f, m in zip(tb.factors, alpha))


def test_base_mollifier_normalized():
    assert moment(base_mollifier, 0) == pytest.approx(1.0, abs=1e-12)


def test_base_moments_strictly_decreasing():
    values = [base_moment(m) for m in range(9)]
    assert values[0] == 1.0
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_translated_atom_keeps_unit_mass():
    for x, r in ((0.3, 0.2), (2.0, 0.01), (0.125, 0.5)):
        atom = BumpCombination(((1.0, x, r),))
        assert moment(atom, 0) == pytest.approx(1.0, abs=1e-11)


def test_moment_quadrature_matches_closed_form(mean_zero_bump):
    # dual route: adaptive quadrature vs binomial expansion in the cached b_m
    for m in (0, 1, 2, 3, 5, 8):
        assert moment(mean_zero_bump, m) == pytest.approx(
            mean_zero_bump.moment_closed_form(m), abs=1e-11
        )


def test_moment_rejects_big_exponent(mean_zero_bump):
    with pytest.raises(ValueError):
        moment(mean_zero_bump, 65)


def test_moment_bump_two_atoms():
    mb = moment_bump(1.0, 1)
    assert len(mb.bump.atoms) == 2
    c1, c2 = (c for c, _, _ in mb.bump.atoms)
    assert c1 + c2 == pytest.approx(0.0, abs=1e-12)
    assert abs(mb.moments[0]) < 1e-10
    assert abs(mb.moments[1]) > 1e-4


def test_moment_bump_with_exclusions():
    mb = moment_bump(1.0, 1, excluded={2})
    assert len(mb.bump.atoms) == 3
    assert abs(mb.moments[0]) < 1e-10
    assert abs(mb.moments[2]) < 1e-9
    assert abs(mb.moments[1]) > 1e-4


def test_moment_bump_determinant_identity():
    for a1, excluded in ((1, ()), (1, (2,)), (2, (1, 3)), (3, (1, 2, 5))):
        mb = moment_bump(1.0, a1, excluded)
        assert mb.determinant == pytest.approx(
            mb.determinant_closed_form, rel=1e-8
        )


def test_moment_bump_postconditions_sweep():
    for a1 in (1, 2, 3):
        for excluded in ((), (a1 + 1,), (a1 + 1, a1 + 2)):
            mb = moment_bump(1.0, a1, excluded)
            assert abs(mb.moments[0]) < 1e-10
            for e in excluded:
                assert abs(mb.moments[e]) < 1e-9
            scale = max(abs(c) for c, _, _ in mb.bump.atoms)
            assert abs(mb.moments[a1]) > 1e-6 * scale
            # the reported moments are closed-form; adaptive quadrature is the oracle
            for e, value in mb.moments.items():
                assert moment(mb.bump, e) == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("a1, excluded", [(6, "4,5,7"), (7, "4,5,6")])
def test_bump_cli_passes_where_quadrature_mass_nears_threshold(a1, excluded, capsys):
    # adaptive quadrature reads these masses as -2.2e-10 and -1.1e-10, just
    # outside the 1e-10 threshold; the closed form gives 0
    argv = ["bump", "--a", "1.0", "--a1", str(a1), "--excluded", excluded, "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    bump = BumpCombination(tuple(tuple(atom) for atom in report["atoms"]))
    for e, value in report["moments"].items():
        assert moment(bump, int(e)) == pytest.approx(value, abs=1e-9)


def test_moment_bump_rejects_bad_input():
    with pytest.raises(ValueError):
        moment_bump(1.0, 2, excluded={2})
    with pytest.raises(ValueError):
        moment_bump(-1.0, 1)
    with pytest.raises(ValueError):
        moment_bump(1.0, 0)
    with pytest.raises(ValueError):
        moment_bump(1.0, 1, excluded=set(range(2, 20)))


def test_moment_bump_support_containment():
    a = 0.8
    mb = moment_bump(a, 2, excluded=(1,))
    t = np.linspace(-0.5, 2.0, 4001)
    vals = mb.bump(t)
    outside = (t <= 0.0) | (t >= a)
    assert np.all(vals[outside] == 0.0)
    assert np.max(np.abs(vals)) > 0.0


def test_bump_smoothness_proxy():
    # finite differences of order <= 4 stay bounded near the support edges
    mb = moment_bump(1.0, 1, excluded=(2,))
    h = 1e-3
    t = np.linspace(1e-6, 1.0 - 1e-6, 2000)
    for order in range(1, 5):
        offsets = np.arange(order + 1)
        coeffs = [(-1) ** (order - k) * math.comb(order, k) for k in offsets]
        fd = sum(c * mb.bump(t + k * h) for c, k in zip(coeffs, offsets)) / h**order
        assert np.all(np.isfinite(fd))
        assert np.max(np.abs(fd)) < 1e12


def test_mollifier_derivative_matches_finite_difference():
    t = np.linspace(0.05, 0.95, 37)
    h = 1e-6
    fd1 = (base_mollifier(t + h) - base_mollifier(t - h)) / (2 * h)
    assert np.max(np.abs(fd1 - mollifier_derivative(t, 1))) < 1e-8
    fd2 = (base_mollifier(t + h) - 2 * base_mollifier(t) + base_mollifier(t - h)) / h**2
    assert np.max(np.abs(fd2 - mollifier_derivative(t, 2))) < 1e-3 * (
        1 + np.max(np.abs(fd2))
    )


def test_mollifier_derivative_rejects_a_negative_order():
    # order -1 used to return psi itself
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        mollifier_derivative(np.array([0.5]), -1)


def test_mollifier_derivative_vanishes_outside():
    t = np.array([-0.5, 0.0, 1.0, 1.5])
    for order in range(4):
        assert np.all(mollifier_derivative(t, order) == 0.0)


def test_tensor_factorized_slice(mean_zero_bump):
    tb = tensor_bump([mean_zero_bump, mean_zero_bump])
    # integrating out the first axis kills everything: int phi = 0
    assert closed_moment(tb, (0, 0)) == pytest.approx(0.0, abs=1e-10)
    assert closed_moment(tb, (0, 1)) == pytest.approx(0.0, abs=1e-10)


def test_tensor_mixed_moment_nonzero(mean_zero_bump):
    # int phi = 0 but int s phi != 0, so int s t phi(s) phi(t) != 0
    tb = tensor_bump([mean_zero_bump, mean_zero_bump])
    assert abs(closed_moment(tb, (1, 1))) > 1e-4


def test_tensor_moment_factorization_vs_grid(mean_zero_bump):
    tb = tensor_bump([mean_zero_bump, mean_zero_bump])
    for alpha in ((1, 1), (2, 1), (0, 2)):
        assert closed_moment(tb, alpha) == pytest.approx(moment_by_grid(tb, alpha), abs=1e-10)


def test_tensor_moment_exact_on_small_support():
    # adaptive quadrature reads the mass of this bump as -1.4e-8; the closed
    # form gives exactly zero
    b = moment_bump(0.5, 6, (4, 5, 7)).bump
    assert abs(closed_moment(tensor_bump([b, b]), (0, 6))) <= 1e-12


def test_tensor_grid_moment_resolves_small_support():
    # the atoms reach radius 1/64 with coefficients up to 6e7; a uniform grid
    # over the support box read (0, 6) as -4e4, the atom-aligned one as 1e-8
    b = moment_bump(0.5, 6, (4, 5, 7)).bump
    tb = tensor_bump([b, b])
    assert abs(moment_by_grid(tb, (0, 6))) <= 1e-6
    for alpha in ((1, 1), (2, 1), (6, 6)):
        assert moment_by_grid(tb, alpha) == pytest.approx(closed_moment(tb, alpha), rel=1e-9)


def test_serialization_round_trip_bit_exact(tmp_path, capsys):
    # bump --out writes the report's own [c, x, r] numbers, which reload bit-exact
    out = tmp_path / "bump.json"
    assert main(["bump", "--a", "0.7", "--a1", "2", "--excluded", "1,4", "--format", "json", "--out", str(out)]) == 0
    atoms = json.loads(capsys.readouterr().out)["atoms"]
    assert out.read_text() == json.dumps({"atoms": atoms}, sort_keys=True) + "\n"
    again = BumpCombination(tuple(map(tuple, json.loads(out.read_text())["atoms"])))
    assert again.atoms == moment_bump(0.7, 2, excluded=(1, 4)).bump.atoms


@pytest.mark.parametrize(
    "coeffs, exact_zero",
    [
        ((1e16, 1.0, -1e16, -1.0), True),  # the float sum in order reads -1.0
        ((0.1, 0.2, -0.3), False),  # the float sum reads 5.6e-17, the exact sum is not 0 either
        ((1e308, 1e308, -1e308, -1e308), True),  # a partial sum overflows
        ((1e308, 1e308, -1e308), False),
        ((1.0, math.nan, -1.0), False),
        ((math.inf, -math.inf), False),
        ((), True),
    ],
)
def test_exact_zero_mass_is_the_exact_coefficient_sum(coeffs, exact_zero):
    bump = BumpCombination(tuple((c, 0.1 * j, 0.5) for j, c in enumerate(coeffs)))
    assert bump.exact_zero_mass is exact_zero
    if all(map(math.isfinite, coeffs)):
        assert exact_zero == (sum(map(Fraction, coeffs)) == 0)

