import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpradon.bumps import BumpCombination, TensorBump, moment_bump, tensor_bump
from mpradon.cli import EXIT_BOUNDED, EXIT_ERROR, EXIT_UNBOUNDED, main
from mpradon.dilations import ExponentScheme, dilation_factors
from mpradon.harness import default_experiment_atom
from mpradon.kernels import (
    CancellationReport,
    DyadicKernelSeq,
    KernelEntry,
    ProductBoundEstimate,
    ScaledAtom,
    SliceCheck,
    load_kernel_sequence,
    regroup_to_dyadic,
    sample_product_kernel_bounds,
    save_kernel_sequence,
    telescope_decompose,
    verify_cancellation,
)
from mpradon.quadrature import integrate_adaptive, tensor_grid
from oracles import (
    cm_norm_sampled,
    dyadic_source_sum,
    entry_values,
    kernel_sum,
    scaled_sequence,
    telescope_source_sum,
)

PROD2 = ExponentScheme.product(2)


def single_entry_seq(atom: TensorBump, k=(0, 0), radius=0.75) -> DyadicKernelSeq:
    entry = KernelEntry(PROD2, [ScaledAtom(1.0, atom, (1.0, 1.0))])
    return DyadicKernelSeq(PROD2, radius, {k: entry})


# -- cancellation ------------------------------------------------------------


def test_cancellation_passes_for_mean_zero_tensor(mean_zero_tensor):
    seq = single_entry_seq(mean_zero_tensor, k=(2, 3))
    report = verify_cancellation(seq)
    assert report.passed
    assert report.max_abs < 1e-9


def test_cancellation_detects_violation(mean_zero_bump, mean_one_bump):
    atom = tensor_bump([mean_one_bump, mean_zero_bump])  # first axis mass 1
    seq = single_entry_seq(atom, k=(1, 0))
    report = verify_cancellation(seq)
    assert not report.passed
    assert [(c.index, c.mu) for c in report.failing()] == [((1, 0), 0)]


def test_cancellation_skips_zero_index_components(mean_zero_bump, mean_one_bump):
    # k = (0, 1): only mu = 1 is constrained, and that axis is mean zero
    atom = tensor_bump([mean_one_bump, mean_zero_bump])
    seq = single_entry_seq(atom, k=(0, 1))
    report = verify_cancellation(seq)
    assert report.passed
    assert {c.mu for c in report.checks} == {1}


def test_cancellation_support_violation_reported(mean_zero_tensor):
    seq = single_entry_seq(mean_zero_tensor, k=(1, 1), radius=0.2)
    report = verify_cancellation(seq)
    assert report.support_violations
    assert not report.passed


def test_cancellation_invariant_under_scaling(mean_zero_tensor, mean_one_bump, mean_zero_bump):
    good = single_entry_seq(mean_zero_tensor, k=(1, 1), radius=5.0)
    bad = DyadicKernelSeq(
        PROD2,
        5.0,
        {(1, 1): KernelEntry(PROD2, [ScaledAtom(1.0, tensor_bump([mean_one_bump, mean_zero_bump]), (1.0, 1.0))])},
    )
    for seq, expected in ((good, True), (bad, False)):
        base = verify_cancellation(seq).max_abs <= 1e-9
        scaled = verify_cancellation(scaled_sequence(seq, (0.5, 3.0))).max_abs <= 1e-9
        assert base == scaled == expected


def _factors(entry: KernelEntry, sa: ScaledAtom) -> tuple[np.ndarray, float]:
    f = np.array(dilation_factors(sa.delta, entry.scheme), dtype=float)
    return f, float(np.prod(f))


def _closed_form_mass(factor: BumpCombination, f: float) -> float:
    return factor.moment_closed_form(0) / f


def _adaptive_mass(factor: BumpCombination, f: float) -> float:
    lo, hi = factor.support()
    return integrate_adaptive(lambda u: factor(f * u), lo / f, hi / f, tol=1e-13, order=24)


def sampled_cancellation(
    seq: DyadicKernelSeq,
    tolerance: float = 1e-9,
    grid_per_axis: int = 9,
    inner_mass=_closed_form_mass,
) -> CancellationReport:
    """The reference: every slice is sampled on the outer grid over all of
    its atoms, each inner 1-D factor integral by ``inner_mass(factor, f)``."""
    checks: list[SliceCheck] = []
    violations: list[tuple[tuple[int, ...], float]] = []
    for k in seq.indices():
        entry = seq.entries[k]
        box = entry.support_box()
        radius = max(max(abs(lo), abs(hi)) for lo, hi in box)
        if radius > seq.support_radius + 1e-12:
            violations.append((k, radius))
        for mu in range(seq.scheme.n_params):
            if k[mu] == 0:
                continue
            inner = sorted(set(seq.scheme.slice_coordinates(mu)))
            outer = [i for i in range(seq.scheme.n_t) if i not in inner]
            # per atom: coefficient * jacobian * prod of inner 1-D integrals
            reduced: list[tuple[float, ScaledAtom]] = []
            for sa in entry.atoms:
                factors, jac = _factors(entry, sa)
                weight = sa.coef * jac
                for i in inner:
                    weight *= inner_mass(sa.atom.factors[i], factors[i])
                reduced.append((weight, sa))
            if outer:
                outer_pts = tensor_grid([np.linspace(*box[i], grid_per_axis) for i in outer])
                acc = np.zeros(outer_pts.shape[0])
                for weight, sa in reduced:
                    factors, _ = _factors(entry, sa)
                    vals = np.full(outer_pts.shape[0], weight)
                    for col, i in enumerate(outer):
                        vals = vals * sa.atom.factors[i](factors[i] * outer_pts[:, col])
                    acc += vals
                worst = float(np.max(np.abs(acc)))
            else:
                worst = float(abs(sum(weight for weight, _ in reduced)))
            checks.append(SliceCheck(k, mu, worst))
    return CancellationReport(tuple(checks), tuple(violations), tolerance)


# (a, a1, excluded) of moment bumps on which both readings of the slice
# integrals of a telescoped kernel stay below 1.3e-12.  Each reading's float
# error grows with the atom coefficients times the outer values: for
# (0.5, 2, (1, 4)) adaptive quadrature reads 1.9e-9 where the closed form
# reads 0, and for (0.5, 3, (2, 4)) it does not converge.
REFERENCE_BUMPS = ((0.5, 1, ()), (0.5, 2, ()), (1.0, 1, ()), (1.0, 2, ()), (1.0, 3, ()), (1.0, 1, (4,)))


@st.composite
def _kernel_sequences(draw, nus=(1, 2), several_atoms=False):
    """Regrouped or telescoped sequences, nu in ``nus``, M <= 6; in about half
    of them one axis carries a unit-mass atom, so its slices cannot cancel.
    With ``several_atoms`` a telescoped sequence takes the atom of index k
    from a cycle of up to three, the others tensors of moment bumps."""
    nu = draw(st.sampled_from(nus))
    factors = [moment_bump(*draw(st.sampled_from(REFERENCE_BUMPS))).bump] * nu
    if draw(st.booleans()):
        x, r = draw(st.floats(-0.5, 0.5)), draw(st.floats(0.05, 1.0))
        factors[draw(st.integers(0, nu - 1))] = BumpCombination(((1.0, x, r),))
    atom, scheme = tensor_bump(factors), ExponentScheme.product(nu)
    cycle = [atom]
    if several_atoms:
        for _ in range(draw(st.integers(0, 2))):
            cycle.append(tensor_bump([moment_bump(*draw(st.sampled_from(REFERENCE_BUMPS))).bump for _ in range(nu)]))
    m_max = draw(st.integers(0, 6))
    if draw(st.booleans()):
        direction = tuple(draw(st.sampled_from([1.0, 0.5, -0.5, -1.0])) for _ in range(nu))
        # log2(tau) sits 0.05-0.45 past a multiple of 1/2, so no k n + log2(tau)
        # falls on an integer, where rounding could misplace a bucket
        tau = tuple(
            2.0 ** (m_max * abs(n) + draw(st.integers(1, 3)) + draw(st.floats(0.05, 0.45)))
            for n in direction
        )
        return regroup_to_dyadic(atom, tau, direction, m_max, scheme)
    m_j = tuple(draw(st.integers(0, 3)) for _ in range(nu))
    v = tuple(2.0 ** (m + 1) * draw(st.floats(1.0, 1.999)) for m in m_j)
    return telescope_decompose(lambda k: cycle[sum(k) % len(cycle)], m_j, v, m_max, scheme)


@settings(max_examples=60, deadline=None)
@given(_kernel_sequences())
def test_exact_slice_masses_match_adaptive_quadrature(seq):
    exact, reference = verify_cancellation(seq), sampled_cancellation(seq, inner_mass=_adaptive_mass)
    assert [(c.index, c.mu) for c in exact.checks] == [(c.index, c.mu) for c in reference.checks]
    for new, old in zip(exact.checks, reference.checks):
        assert type(new.max_abs) is float
        assert abs(new.max_abs - old.max_abs) <= 1e-11 + 1e-12 * abs(old.max_abs)
    assert exact.passed == reference.passed
    assert exact.support_violations == reference.support_violations


def _dropped_atoms(seq: DyadicKernelSeq, k, mu) -> list[bool]:
    """Per atom of slice (k, mu): an inner factor of exact mass 0 and a finite coef * jac."""
    entry, inner = seq.entries[k], seq.scheme.slice_coordinates(mu)
    return [
        math.isfinite(sa.coef * jac) and any(sa.atom.factors[i].exact_zero_mass for i in inner)
        for sa, (_, jac) in zip(entry.atoms, entry.dilations)
    ]


@settings(max_examples=60, deadline=None)
@given(_kernel_sequences())
def test_exact_zero_certificates_match_the_sampled_oracle(seq):
    report, oracle = verify_cancellation(seq), sampled_cancellation(seq)
    assert [(c.index, c.mu) for c in report.checks] == [(c.index, c.mu) for c in oracle.checks]
    assert report.passed == oracle.passed
    assert report.support_violations == oracle.support_violations
    for check, reference in zip(report.checks, oracle.checks):
        dropped = _dropped_atoms(seq, check.index, check.mu)
        assert check.exact_zero == all(dropped)
        if check.exact_zero:
            assert check.max_abs == 0.0 and reference.max_abs <= report.tolerance
        elif not any(dropped):
            assert check.max_abs == reference.max_abs
    assert report.exact_zero_slices == sum(c.exact_zero for c in report.checks)


def test_exact_mass_certifies_where_the_float_sum_does_not(mean_zero_bump):
    # the coefficients sum to exactly 0, but in float arithmetic, in order, to -1.0
    cancelled = BumpCombination(((1e16, 0.0, 0.5), (1.0, 0.1, 0.25), (-1e16, 0.0, 0.5), (-1.0, 0.2, 0.25)))
    assert cancelled.moment_closed_form(0) == -1.0 and cancelled.exact_zero_mass
    seq = single_entry_seq(tensor_bump([cancelled, mean_zero_bump]), k=(1, 0))
    report = verify_cancellation(seq)
    assert report.passed
    assert report.checks == (SliceCheck((1, 0), 0, 0.0, exact_zero=True),)
    assert not sampled_cancellation(seq).passed


@pytest.mark.parametrize("a1, excluded", [(2, (1, 4)), (3, (2, 4))])
def test_exact_masses_pass_where_adaptive_quadrature_did_not(tmp_path, capsys, a1, excluded):
    # with adaptive quadrature these cancelling kernels read 1.9e-9 (a false
    # failure at tolerance 1e-9) and raised QuadratureError, respectively
    b = moment_bump(0.5, a1, excluded).bump
    seq = telescope_decompose(lambda k: tensor_bump([b, b]), (1, 1), (4.5, 6.1), 3)
    path = tmp_path / "kernel.txt"
    save_kernel_sequence(seq, path)
    assert main(["kernel-check", "--kernel", str(path), "--format", "json"]) == EXIT_BOUNDED
    cancel = json.loads(capsys.readouterr().out)["cancellation"]
    assert cancel["passed"] is True
    assert cancel["max_abs_slice_integral"] == 0.0


def test_non_finite_slice_integral_fails(mean_zero_bump):
    report = CancellationReport(
        (SliceCheck((1,), 0, 0.0), SliceCheck((2,), 0, math.nan), SliceCheck((3,), 0, math.inf)),
        (),
        1e-9,
    )
    assert math.isnan(report.max_abs)
    assert not report.passed
    assert [c.index for c in report.failing()] == [(2,), (3,)]


def _one_parameter_file(tmp_path, mean_zero_bump, mean_one_bump, huge: float):
    """k=1 cancels; k=2 holds +-huge copies of a unit-mass atom."""
    scheme = ExponentScheme.product(1)
    seq = DyadicKernelSeq(
        scheme,
        1.0,
        {
            (1,): KernelEntry(scheme, [ScaledAtom(1.0, tensor_bump([mean_zero_bump]), (1.0,))]),
            (2,): KernelEntry(
                scheme,
                [ScaledAtom(c, tensor_bump([mean_one_bump]), (4.0,)) for c in (huge, -huge)],
            ),
        },
    )
    path = tmp_path / "kernel.txt"
    save_kernel_sequence(seq, path)
    return path


def test_kernel_check_fails_on_overflowing_slice(tmp_path, capsys, mean_zero_bump, mean_one_bump):
    # coefficient * jacobian overflows to +-inf, and the slice mass reads nan
    # behind a first slice that cancels
    path = _one_parameter_file(tmp_path, mean_zero_bump, mean_one_bump, 1e308)
    with np.errstate(invalid="ignore"):
        code = main(["kernel-check", "--kernel", str(path), "--format", "json"])
    assert code == EXIT_UNBOUNDED
    cancel = json.loads(capsys.readouterr().out)["cancellation"]
    assert cancel["passed"] is False
    assert math.isnan(cancel["max_abs_slice_integral"])
    assert [(f["k"], f["mu"]) for f in cancel["failures"]] == [([2], 0)]
    assert math.isnan(cancel["failures"][0]["max_abs"])


def test_exact_zero_needs_a_finite_coefficient_times_jacobian(mean_zero_bump):
    # 1e308 * 4 overflows, and inf * 0 is nan: the atom is sampled, not dropped
    scheme = ExponentScheme.product(1)
    atoms = [ScaledAtom(c, tensor_bump([mean_zero_bump]), (4.0,)) for c in (1e308, 1.0)]
    seq = DyadicKernelSeq(scheme, 1.0, {(1,): KernelEntry(scheme, atoms)})
    with np.errstate(invalid="ignore"):
        report = verify_cancellation(seq)
    assert not report.passed and report.exact_zero_slices == 0
    assert math.isnan(report.checks[0].max_abs)
    finite = DyadicKernelSeq(scheme, 1.0, {(1,): KernelEntry(scheme, atoms[1:])})
    assert verify_cancellation(finite).checks == (SliceCheck((1,), 0, 0.0, exact_zero=True),)


# where each field of the first term sits in a kernel file, and the error
# line for a value beyond float range there
_NON_FINITE = {
    "coefficient": (("entries", 0, 1, 0, 0), "kernel file entry 0 term 0: coef must be finite, got inf"),
    "delta": (("entries", 0, 1, 0, 1, 1), "kernel file entry 0 term 0: a value of delta must be finite, got inf"),
    "triple": (("atoms", 0, 0, 0, 2), "kernel file atom 0: a value of the triple [c, x, r] must be finite, got inf"),
    "radius": (("a",), "kernel file: support radius a must be finite, got -inf"),
}


def _with_raw(data: dict, path: tuple, raw: str) -> str:
    """``data`` as JSON text with the value at ``path`` replaced by the text ``raw``."""
    data = json.loads(json.dumps(data))
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = "@"
    return json.dumps(data).replace('"@"', raw)


@pytest.mark.parametrize("field", ["coefficient", "delta", "triple", "radius"])
def test_kernel_file_rejects_non_finite_numbers(tmp_path, capsys, mean_zero_tensor, field):
    seq = regroup_to_dyadic(mean_zero_tensor, (700.0, 900.0), (1.0, -1.0), 3)
    path = tmp_path / "kernel.json"
    save_kernel_sequence(seq, path)
    where, message = _NON_FINITE[field]
    # 1e400 is valid JSON, and reads as inf
    path.write_text(_with_raw(json.loads(path.read_text()), where, "-1e400" if field == "radius" else "1e400"))
    with pytest.raises(ValueError, match="finite"):
        load_kernel_sequence(path)
    assert main(["kernel-check", "--kernel", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "raw, message",
    [
        ("NaN", "kernel file: NaN is not a JSON number"),
        ("Infinity", "kernel file: Infinity is not a JSON number"),
        ("-Infinity", "kernel file: -Infinity is not a JSON number"),
        ("1" + "0" * 400, "kernel file entry 0 term 0: coef is an integer beyond float range"),
    ],
    ids=["nan", "infinity", "minus-infinity", "400-digit-integer"],
)
def test_kernel_file_rejects_numbers_beyond_json_or_float_range(tmp_path, capsys, mean_zero_tensor, raw, message):
    # json reads NaN and Infinity unless told not to, and float() of a
    # 400-digit integer raises OverflowError
    path = tmp_path / "kernel.json"
    save_kernel_sequence(regroup_to_dyadic(mean_zero_tensor, (700.0, 900.0), (1.0, -1.0), 3), path)
    path.write_text(_with_raw(json.loads(path.read_text()), _NON_FINITE["coefficient"][0], raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kernel-check", "--kernel", str(path), "--format", "json"]) == EXIT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


# -- product kernel bounds ------------------------------------------------------


def test_single_entry_bound_is_weighted_sup(mean_zero_tensor):
    seq = single_entry_seq(mean_zero_tensor)
    mags = np.geomspace(0.05, 0.6, 16)
    s, t = np.meshgrid(mags, mags, indexing="ij")
    samples = np.stack([s.reshape(-1), t.reshape(-1)], axis=-1)
    (est,) = sample_product_kernel_bounds(seq, [0], [(0, 0)], samples=samples)
    direct = np.max(
        np.abs(mean_zero_tensor(samples)) * np.abs(samples[:, 0]) * np.abs(samples[:, 1])
    )
    assert est.constant == pytest.approx(direct, rel=1e-12)


def _full_square_seq(atom: TensorBump, depth: int) -> DyadicKernelSeq:
    entries = {
        k: KernelEntry(PROD2, [ScaledAtom(1.0, atom, (1.0, 1.0))])
        for k in iter_product(range(depth + 1), repeat=2)
    }
    return DyadicKernelSeq(PROD2, 0.75, entries)


def test_bound_constants_stabilize_in_truncation(mean_zero_tensor):
    seq = _full_square_seq(mean_zero_tensor, 10)
    mags = np.geomspace(0.05, 0.6, 12)
    s, t = np.meshgrid(mags, mags, indexing="ij")
    quadrant = np.stack([s.reshape(-1), t.reshape(-1)], axis=-1)
    samples = np.concatenate([quadrant * sg for sg in ((1, 1), (1, -1), (-1, 1), (-1, -1))])
    ests = sample_product_kernel_bounds(seq, [6, 8, 10], [(0, 0), (1, 0)], samples=samples)
    by_alpha: dict = {}
    for e in ests:
        by_alpha.setdefault(e.alpha, []).append(e.constant)
    for constants in by_alpha.values():
        assert all(np.isfinite(constants))
        spread = (max(constants) - min(constants)) / max(constants)
        assert spread < 0.05


def test_bound_scales_linearly(mean_zero_bump):
    atom = tensor_bump([mean_zero_bump, mean_zero_bump])
    double = tensor_bump([BumpCombination(tuple((2 * c, x, r) for c, x, r in mean_zero_bump.atoms)), mean_zero_bump])
    mags = np.geomspace(0.05, 0.6, 10)
    s, t = np.meshgrid(mags, mags, indexing="ij")
    samples = np.stack([s.reshape(-1), t.reshape(-1)], axis=-1)
    (a,) = sample_product_kernel_bounds(single_entry_seq(atom), [0], samples=samples)
    (b,) = sample_product_kernel_bounds(single_entry_seq(double), [0], samples=samples)
    assert b.constant == pytest.approx(2 * a.constant, rel=1e-12)


def test_bound_rejects_axis_samples(mean_zero_tensor):
    seq = single_entry_seq(mean_zero_tensor)
    with pytest.raises(ValueError):
        sample_product_kernel_bounds(seq, [0], samples=np.array([[0.0, 0.1]]))


@pytest.mark.parametrize(
    "alphas, alpha",
    [
        ("-1,0", "(-1, 0)"),
        ("1", "(1,)"),
        ("0,0,0", "(0, 0, 0)"),
        ("0,0;0,-2", "(0, -2)"),
        ("1,0;", "''"),
        ("a,0", "'a,0'"),
    ],
)
def test_kernel_check_rejects_derivative_orders_it_cannot_compute(tmp_path, capsys, mean_zero_tensor, alphas, alpha):
    # -1,0 read psi itself as its own derivative of order -1 and exited 0;
    # 1 and 0,0,0 ended in a bare "not enough/too many values to unpack";
    # 1,0; and a,0 in "invalid literal for int() with base 10", naming no alpha
    path = tmp_path / "regroup.kernel"
    save_kernel_sequence(regroup_to_dyadic(mean_zero_tensor, (700.0, 900.0), (1.0, -1.0), 3), path)
    assert main(["kernel-check", "--kernel", str(path), "--M", "40", f"--alphas={alphas}"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: alpha {alpha}: a derivative order is two nonnegative integers\n"


@pytest.mark.parametrize("alpha", [(48, 0), (64, 0)])
def test_kernel_check_rejects_a_product_bound_beyond_float_range(tmp_path, capsys, alpha):
    # (48, 0) reported "constant": Infinity and (64, 0) NaN, both with exit 0
    # and numpy RuntimeWarnings, which the test configuration turns into errors
    path = tmp_path / "regroup.kernel"
    save_kernel_sequence(regroup_to_dyadic(default_experiment_atom(), (200.0, 300.0), (1, 1), 3), path)
    argv = ["kernel-check", "--kernel", str(path), "--M", "40", "--alphas", ",".join(map(str, alpha))]
    assert main([*argv, "--format", "json"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    # truncations {0, 20, 40}: M = 0 keeps no entry, M = 20 is the first to overflow
    assert err == f"error: alpha {alpha}, M = 20: the product-bound constant is beyond float range\n"


@pytest.mark.parametrize("radius", [1e-6, 1e6])
def test_kernel_check_rejects_a_derivative_scale_beyond_float_range(tmp_path, capsys, radius):
    # r^61 underflowed to 0 (ZeroDivisionError) or overflowed (OverflowError),
    # both a traceback out of kernel-check
    factor = [[1.0, 0.0, radius], [-1.0, radius / 2, radius]]
    text = _kernel_text([[[1, 0], [[1.0, [1.0, 1.0], 0]]]], [[factor, factor]], rows=["1 0", "0 1"], a=4.0)
    code, out, err = _kernel_check(tmp_path, capsys, text, "--M", "4", "--alphas", "60,0")
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: atom radius r = {radius!r}: the scale c / r^61 of the order-60 derivative is beyond float range\n"
    code, out, err = _kernel_check(tmp_path, capsys, text, "--M", "4", "--alphas", "2,0")
    assert code != EXIT_ERROR and err == ""


@pytest.mark.parametrize("orders", [(1,), (1, 0, 5)])
def test_derivative_values_reject_orders_of_the_wrong_length(mean_zero_bump, orders):
    # (1,) read the first factor's derivative alone, 549.2 at (0.3, 0.35) where
    # (1, 0) reads 25840.1; (1, 0, 5) read like (1, 0) or failed in numpy
    atom = tensor_bump([mean_zero_bump, mean_zero_bump])
    with pytest.raises(ValueError, match=r"orders must have 2 entries, got \d"):
        atom.derivative_values(np.array([[0.3, 0.35]]), orders)


def test_bound_constants_match_per_truncation_evaluation(mean_zero_bump):
    atom = tensor_bump([mean_zero_bump, mean_zero_bump])
    seq = telescope_decompose(lambda k: atom, (2, 1), (2.0**3 * 1.3, 2.0**2 * 1.7), 4)
    truncations, alphas = [0, 2, 4], [(0, 0), (1, 0), (0, 2)]
    together = sample_product_kernel_bounds(seq, truncations, alphas)
    apart = [
        est
        for alpha in alphas
        for m_cut in truncations
        for est in sample_product_kernel_bounds(seq, [m_cut], [alpha])
    ]
    assert together == apart


def direct_product_bounds(seq, truncations, alphas, samples) -> list[ProductBoundEstimate]:
    """The reference: each scaled entry's derivative at every sample point."""
    out = []
    for alpha in alphas:
        weight = np.abs(samples[:, 0]) ** (1 + alpha[0]) * np.abs(samples[:, 1]) ** (1 + alpha[1])
        accs = [np.zeros(samples.shape[0]) for _ in truncations]
        for k in seq.indices():
            keep = [acc for acc, m_cut in zip(accs, truncations) if sum(k) <= m_cut]
            if keep:
                vals = entry_values(seq.entries[k].scaled([2.0**v for v in k]), samples, alpha)
                for acc in keep:
                    acc += vals
        out += [
            ProductBoundEstimate(tuple(alpha), m_cut, float(np.max(np.abs(acc) * weight)))
            for m_cut, acc in zip(truncations, accs)
        ]
    return out


def _default_samples(radius: float) -> np.ndarray:
    mags = np.geomspace(1e-4, radius, 24)
    quadrant = tensor_grid([mags, mags])
    return np.concatenate([quadrant * sign for sign in ((1, 1), (1, -1), (-1, 1), (-1, -1))])


@settings(max_examples=20, deadline=None)
@given(_kernel_sequences(nus=(2,)))
def test_factor_value_bounds_match_direct_evaluation(seq):
    truncations, alphas = [0, 2, 4], [(0, 0), (1, 0), (0, 2)]
    grid = _default_samples(seq.support_radius)
    default = sample_product_kernel_bounds(seq, truncations, alphas)
    assert default == sample_product_kernel_bounds(seq, truncations, alphas, samples=grid)
    assert default == direct_product_bounds(seq, truncations, alphas, grid)
    scattered = np.random.default_rng(0).uniform(-1.0, 1.0, (300, 2)) * seq.support_radius
    assert sample_product_kernel_bounds(seq, truncations, alphas, samples=scattered) == direct_product_bounds(
        seq, truncations, alphas, scattered
    )


# -- regrouping -----------------------------------------------------------------


def test_regroup_single_term(mean_zero_tensor):
    tau = (700.0, 900.0)
    seq = regroup_to_dyadic(mean_zero_tensor, tau, (1.0, -1.0), 0)
    assert len(seq.entries) == 1
    (i,) = seq.entries
    assert i == (int(math.floor(math.log2(700.0))), int(math.floor(math.log2(900.0))))
    (atom,) = seq.entries[i].atoms
    assert all(1.0 <= d < 2.0 for d in atom.delta)


def test_regroup_identity_pointwise(mean_zero_tensor):
    tau = (2.0**9, 2.0**9)
    seq = regroup_to_dyadic(mean_zero_tensor, tau, (1.0, -1.0), 5)
    source = dyadic_source_sum(mean_zero_tensor, tau, (1.0, -1.0), 5)
    rng = np.random.default_rng(99)
    pts = rng.uniform(-0.002, 0.002, size=(10_000, 2))
    lhs, rhs = kernel_sum(seq, pts), source(pts)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_regroup_identity_fractional_tau(mean_zero_tensor):
    tau = (700.0, 11.5)
    seq = regroup_to_dyadic(mean_zero_tensor, tau, (1.0, -0.5), 4)
    source = dyadic_source_sum(mean_zero_tensor, tau, (1.0, -0.5), 4)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.06, 0.06, size=(10_000, 2))
    scale = np.max(np.abs(source(pts)))
    assert np.max(np.abs(kernel_sum(seq, pts) - source(pts))) <= 1e-12 * max(1.0, scale)
    for entry in seq.entries.values():
        for atom in entry.atoms:
            assert all(1.0 <= d < 2.0 for d in atom.delta)


def test_regroup_precondition():
    atom = tensor_bump([moment_bump(0.5, 1).bump] * 2)
    with pytest.raises(ValueError):
        regroup_to_dyadic(atom, (4.0, 4.0), (1.0, -1.0), 8)  # log2(4) - 8 < 0


def test_regroup_entry_norms_stay_bounded(mean_zero_tensor):
    tau = (700.0, 900.0)
    sups, c1s, c2s = [], [], []
    for m in range(1, 9):
        seq = regroup_to_dyadic(mean_zero_tensor, tau, (1.0, -1.0), m)
        sups.append(max(cm_norm_sampled(e, 0, 60) for e in seq.entries.values()))
        c1s.append(max(cm_norm_sampled(e, 1, 60) for e in seq.entries.values()))
        c2s.append(max(cm_norm_sampled(e, 2, 60) for e in seq.entries.values()))
        assert max(len(e.atoms) for e in seq.entries.values()) <= 1
    assert max(sups) <= max(sups[:2]) * (1 + 1e-9)
    assert max(c1s) <= max(c1s[:2]) * (1 + 1e-9)
    assert max(c2s) <= max(c2s[:2]) * (1 + 1e-9)


def test_regroup_cancellation_preserved(mean_zero_tensor):
    seq = regroup_to_dyadic(mean_zero_tensor, (700.0, 900.0), (1.0, -1.0), 4)
    assert verify_cancellation(seq).passed


# -- telescoping ------------------------------------------------------------------


def test_telescope_one_parameter_structure(mean_zero_bump):
    atoms = lambda k: tensor_bump([mean_zero_bump])
    m = 3
    seq = telescope_decompose(atoms, (m,), (2.0 ** (m + 1),), 3, ExponentScheme.product(1))
    layout = {l[0]: sorted((sa.coef, sa.delta[0]) for sa in e.atoms) for l, e in seq.entries.items()}
    assert layout[0] == [(1.0, 2.0)]
    for l in (1, 2, 3):
        assert layout[l] == [(-1.0, 1.0), (1.0, 2.0)]
    for l in (4, 5, 6):
        assert layout[l] == [(1.0, 2.0)]


def test_telescope_identity_two_parameters(mean_zero_bump):
    atoms = lambda k: tensor_bump([mean_zero_bump, mean_zero_bump])
    m_j, v, m_max = (4, 2), (2.0**5 * 1.3, 2.0**3 * 1.7), 3
    seq = telescope_decompose(atoms, m_j, v, m_max)
    source = telescope_source_sum(atoms, m_j, v, m_max)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.02, 0.02, size=(10_000, 2))
    scale = np.max(np.abs(source(pts)))
    assert np.max(np.abs(kernel_sum(seq, pts) - source(pts))) <= 1e-12 * max(1.0, scale)


def test_telescope_cancellation(mean_zero_bump):
    atoms = lambda k: tensor_bump([mean_zero_bump, mean_zero_bump])
    seq = telescope_decompose(atoms, (4, 2), (2.0**5 * 1.3, 2.0**3 * 1.7), 3)
    report = verify_cancellation(seq)
    assert report.passed
    assert report.max_abs < 1e-9


def test_telescope_varying_atoms(mean_zero_bump):
    # a genuinely k-dependent family still telescopes exactly
    base = moment_bump(0.5, 2).bump

    def atoms(k):
        return tensor_bump([mean_zero_bump if sum(k) % 2 == 0 else base])

    m_j, v = (3,), (2.0**4 * 1.9,)
    seq = telescope_decompose(atoms, m_j, v, 4, ExponentScheme.product(1))
    source = telescope_source_sum(atoms, m_j, v, 4, ExponentScheme.product(1))
    t = np.linspace(-0.6, 0.6, 5001).reshape(-1, 1)
    scale = np.max(np.abs(source(t)))
    assert np.max(np.abs(kernel_sum(seq, t) - source(t))) <= 1e-12 * max(1.0, scale)


def test_telescope_bracketing_precondition(mean_zero_bump):
    atoms = lambda k: tensor_bump([mean_zero_bump])
    with pytest.raises(ValueError):
        telescope_decompose(atoms, (3,), (2.0**3,), 2, ExponentScheme.product(1))
    with pytest.raises(ValueError):
        telescope_decompose(atoms, (3,), (2.0**5,), 2, ExponentScheme.product(1))


# -- files ------------------------------------------------------------------------


def test_kernel_file_round_trip(tmp_path, mean_zero_tensor):
    seq = regroup_to_dyadic(mean_zero_tensor, (700.0, 900.0), (1.0, -1.0), 3)
    path = tmp_path / "kernel.json"
    save_kernel_sequence(seq, path)
    again = load_kernel_sequence(path)
    assert again.scheme == seq.scheme
    assert again.support_radius == seq.support_radius
    assert set(again.entries) == set(seq.entries)
    for k in seq.entries:
        a, b = seq.entries[k], again.entries[k]
        assert [(sa.coef, sa.delta) for sa in a.atoms] == [(sa.coef, sa.delta) for sa in b.atoms]
        for sa, sb in zip(a.atoms, b.atoms):
            assert [f.atoms for f in sa.atom.factors] == [f.atoms for f in sb.atom.factors]
    # one line of JSON with sorted keys, and the one atom of every entry written once
    text = path.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True) + "\n"
    assert data["scheme_rows"] == ["1 0", "0 1"] and len(data["atoms"]) == 1
    # a second save is byte-identical
    path2 = tmp_path / "kernel2.json"
    save_kernel_sequence(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def _atom_bits(atom: TensorBump) -> tuple:
    return tuple(tuple(tuple(map(float.hex, t)) for t in f.atoms) for f in atom.factors)


def _sequence_bits(seq: DyadicKernelSeq) -> list:
    """Per entry in index order: each term's coef, delta and atom, bit for bit."""
    return [
        (k, [(sa.coef.hex(), tuple(map(float.hex, sa.delta)), _atom_bits(sa.atom)) for sa in seq.entries[k].atoms])
        for k in seq.indices()
    ]


@settings(max_examples=40, deadline=None)
@given(_kernel_sequences(several_atoms=True))
def test_kernel_files_reload_bit_exact_with_one_object_per_atom(seq):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "kernel.json"), os.path.join(tmp, "again.json")
        save_kernel_sequence(seq, path)
        loaded = load_kernel_sequence(path)
        save_kernel_sequence(loaded, again)
        with open(path, "rb") as first, open(again, "rb") as second:
            assert first.read() == second.read()
    assert loaded.scheme == seq.scheme and loaded.support_radius == seq.support_radius
    assert _sequence_bits(loaded) == _sequence_bits(seq)
    # atoms equal in the sequence are one object after the load
    shared: dict = {}
    for k in seq.indices():
        for sa, sb in zip(seq.entries[k].atoms, loaded.entries[k].atoms):
            assert shared.setdefault(_atom_bits(sa.atom), sb.atom) is sb.atom
    assert verify_cancellation(loaded) == verify_cancellation(seq)
    if seq.scheme.n_params == 2:
        truncations, alphas = [0, 2, 4, 8], [(0, 0), (1, 0)]
        assert sample_product_kernel_bounds(loaded, truncations, alphas) == sample_product_kernel_bounds(
            seq, truncations, alphas
        )


def test_kernel_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    for text in ("{}", "not a kernel\n", '{"a": 1.0}', ""):
        path.write_text(text)
        with pytest.raises(ValueError, match="^kernel file: "):
            load_kernel_sequence(path)


@pytest.mark.parametrize("k", [(1.7,), (True,), (1, 2.0)])
def test_dyadic_indices_must_be_integers(mean_zero_bump, k):
    # int() truncated each component, so {(1.7,): a, (1.2,): b} kept only b
    scheme = ExponentScheme.product(len(k))
    entry = KernelEntry(scheme, [ScaledAtom(1.0, tensor_bump([mean_zero_bump] * len(k)), (1.0,) * len(k))])
    with pytest.raises(ValueError, match=re.escape(f"dyadic index {k} must lie in N^{len(k)}")):
        DyadicKernelSeq(scheme, 1.0, {k: entry})
    assert DyadicKernelSeq(scheme, 1.0, {(1,) * len(k): entry}).indices() == [(1,) * len(k)]


_CANCELLING = [[[1.0, 0.0, 0.25], [-1.0, 0.25, 0.25]]]  # one axis, two atoms of opposite sign: mass 0
_UNIT = [[[1.0, 0.125, 0.5]]]  # a unit-mass atom, so its slices cannot cancel


def _kernel_text(entries, atoms=(_CANCELLING, _UNIT), rows=("1",), a=1.0) -> str:
    return json.dumps({"a": a, "atoms": list(atoms), "entries": entries, "scheme_rows": list(rows)})


def _kernel_check(tmp_path, capsys, text: str, *extra: str):
    path = tmp_path / "kernel.json"
    path.write_text(text)
    code = main(["kernel-check", "--kernel", str(path), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kernel_check_rejects_a_repeated_entry(tmp_path, capsys):
    # a second index [1] would replace the unit-mass first entry with a cancelling one
    entries = [[[1], [[1.0, [1.0], 1]]], [[2], [[1.0, [1.0], 0]]], [[1], [[1.0, [1.0], 0]]]]
    code, out, err = _kernel_check(tmp_path, capsys, _kernel_text(entries))
    assert code == EXIT_ERROR and out == ""
    assert err == "error: kernel file entry 2: repeated index [1] (first at entry 0)\n"
    entries[2][0] = [3]
    assert _kernel_check(tmp_path, capsys, _kernel_text(entries))[0] == EXIT_UNBOUNDED


@pytest.mark.parametrize("radius", ["-1.0", "0", "-0.0"])
def test_kernel_check_rejects_a_nonpositive_support_radius(tmp_path, capsys, radius):
    text = _kernel_text([[[1], [[1.0, [1.0], 0]]]]).replace('"a": 1.0', f'"a": {radius}')
    code, out, err = _kernel_check(tmp_path, capsys, text)
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: kernel file: support radius a must be positive, got {radius}\n"


_TWO_ENTRIES = json.loads(_kernel_text([[[1], [[1.0, [1.0], 0]]], [[2], [[1.0, [1.0], 0]]]]))


@pytest.mark.parametrize(
    "path, raw, message",
    [
        pytest.param(("atoms", 0, 0, 1), "[-1.0, 0.25]",
                     "atom 0: the triple [c, x, r] must be a list of length 3, got [-1.0, 0.25]", id="triple-arity"),
        pytest.param(("atoms", 0, 0, 1, 1), '"0.25"',
                     'atom 0: a value of the triple [c, x, r] must be a number, got "0.25"', id="triple-value"),
        pytest.param(("atoms", 0, 0, 1, 2), "-0.25", "atom 0: atom radii must be positive", id="triple-radius"),
        pytest.param(("atoms", 0, 0), "1.0", "atom 0: an axis must be a list, got 1.0", id="axis"),
        pytest.param(("atoms", 0), "[[], []]", "atom 0: an atom's axes must be a list of length 1, got [[], []]",
                     id="axes-arity"),
        pytest.param(("entries", 1), "[[2]]",
                     "entry 1: an entry [index, terms] must be a list of length 2, got [[2]]", id="entry"),
        pytest.param(("entries", 1, 0), "2", "entry 1: the index must be a list, got 2", id="index-type"),
        pytest.param(("entries", 1, 0), "[2, 3]", "entry 1: dyadic index (2, 3) must lie in N^1", id="index-arity"),
        pytest.param(("entries", 1, 0), "[-2]", "entry 1: dyadic index (-2,) must lie in N^1", id="index-negative"),
        pytest.param(("entries", 1, 0), "[1.5]", "entry 1: dyadic index (1.5,) must lie in N^1", id="index-float"),
        pytest.param(("entries", 1, 0), "[true]", "entry 1: dyadic index (True,) must lie in N^1", id="index-bool"),
        pytest.param(("entries", 1, 1), "{}", "entry 1: the terms must be a list, got {}", id="terms"),
        pytest.param(("entries", 1, 1, 0), "[1.0, [1.0]]",
                     "entry 1 term 0: a term [coef, delta, atom index] must be a list of length 3, got [1.0, [1.0]]",
                     id="term"),
        pytest.param(("entries", 1, 1, 0, 0), '"1.0"', 'entry 1 term 0: coef must be a number, got "1.0"',
                     id="coef"),
        pytest.param(("entries", 1, 1, 0, 1), "[1.0, 1.0]",
                     "entry 1 term 0: delta must be a list of length 1, got [1.0, 1.0]", id="delta-arity"),
        pytest.param(("entries", 1, 1, 0, 1), "[0.0]", "entry 1 term 0: atom dilation parameters must be positive",
                     id="delta-zero"),
        pytest.param(("entries", 1, 1, 0, 2), "2",
                     "entry 1 term 0: the atom index must be an integer in [0, 2), got 2", id="atom-index-range"),
        pytest.param(("entries", 1, 1, 0, 2), "-1",
                     "entry 1 term 0: the atom index must be an integer in [0, 2), got -1", id="atom-index-negative"),
        pytest.param(("entries", 1, 1, 0, 2), "0.0",
                     "entry 1 term 0: the atom index must be an integer in [0, 2), got 0.0", id="atom-index-float"),
        pytest.param(("entries", 1, 1, 0, 2), "false",
                     "entry 1 term 0: the atom index must be an integer in [0, 2), got false", id="atom-index-bool"),
    ],
)
def test_kernel_file_errors_name_the_atom_entry_and_term(tmp_path, capsys, path, raw, message):
    code, out, err = _kernel_check(tmp_path, capsys, _with_raw(_TWO_ENTRIES, path, raw))
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: kernel file {message}\n"


_CUT_SHORT = json.dumps(_TWO_ENTRIES)[:-1]
_CUT_AT = f"line 1 column {len(_CUT_SHORT) + 1} (char {len(_CUT_SHORT)})"
_KEYS_MESSAGE = "expected an object with the keys ['a', 'atoms', 'entries', 'scheme_rows']"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("[kernel]\nN = 1\n", "Expecting value: line 1 column 2 (char 1)", id="not-json"),
        pytest.param(_CUT_SHORT, f"Expecting ',' delimiter: {_CUT_AT}", id="cut-short"),
        pytest.param("[" * 100_000,
                     "maximum recursion depth exceeded while decoding a JSON array from a unicode string", id="nested"),
        pytest.param("[]", _KEYS_MESSAGE, id="not-an-object"),
        pytest.param(json.dumps({k: v for k, v in _TWO_ENTRIES.items() if k != "a"}),
                     f"{_KEYS_MESSAGE}, got ['atoms', 'entries', 'scheme_rows']", id="missing-key"),
        pytest.param(json.dumps({**_TWO_ENTRIES, "N": 1}),
                     f"{_KEYS_MESSAGE}, got ['N', 'a', 'atoms', 'entries', 'scheme_rows']", id="unknown-key"),
        pytest.param('{"a": 2.0, ' + json.dumps(_TWO_ENTRIES)[1:], "repeated key 'a'", id="repeated-key"),
        pytest.param(_with_raw(_TWO_ENTRIES, ("a",), '"1.0"'), 'support radius a must be a number, got "1.0"',
                     id="radius-type"),
        pytest.param(_with_raw(_TWO_ENTRIES, ("atoms",), "{}"), "atoms must be a list, got {}", id="atoms-type"),
        pytest.param(_with_raw(_TWO_ENTRIES, ("entries",), "null"), "entries must be a list, got null",
                     id="entries-type"),
        pytest.param(_with_raw(_TWO_ENTRIES, ("scheme_rows",), "[[1]]"),
                     'scheme_rows must be a list of strings such as "1 0"', id="rows-type"),
        pytest.param(_with_raw(_TWO_ENTRIES, ("scheme_rows",), '["1", "1 0"]'),
                     "all scheme rows must have the same positive length", id="rows-arity"),
        pytest.param(_with_raw(_TWO_ENTRIES, ("scheme_rows",), '["1e400"]'),
                     "scheme exponent '1e400': the decimal exponent must lie in [-300, 300]", id="rows-exponent-cap"),
    ],
)
def test_kernel_file_errors_name_the_key(tmp_path, capsys, text, message):
    code, out, err = _kernel_check(tmp_path, capsys, text)
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: kernel file: {message}\n"


def test_kernel_check_rejects_a_dilation_factor_that_overflows(tmp_path, capsys):
    # (1e200)^2 is beyond float range: the factor read inf, and kernel-check
    # exited 2 with a numpy RuntimeWarning and NaN for a cancelling kernel
    text = _kernel_text([[[1], [[1.0, [1e200], 0]]]], rows=["2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _kernel_check(tmp_path, capsys, text, "--format", "json")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: kernel file entry 0: atom delta (1e+200,) overflows a dilation factor to inf\n"


def test_kernel_check_rejects_an_overflowing_factor_whose_exponent_is_beyond_float_range(tmp_path, capsys):
    # 2.0^(10^400) overflows
    text = _kernel_text([[[1], [[1.0, [2.0], 0]]]], rows=["1" + "0" * 400])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _kernel_check(tmp_path, capsys, text, "--format", "json")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: kernel file entry 0: atom delta (2.0,) overflows a dilation factor to inf\n"


def test_kernel_check_rejects_a_dilation_factor_that_underflows(tmp_path, capsys):
    # (1e-200)^2 underflows to 0: the support box divided by it, with numpy
    # RuntimeWarnings on stderr, and the check reported radius inf
    text = _kernel_text([[[1], [[1.0, [1e-200], 0]]]], rows=["2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _kernel_check(tmp_path, capsys, text)
    assert code == EXIT_ERROR and out == ""
    assert err == "error: kernel file entry 0: atom delta (1e-200,) underflows a dilation factor to 0\n"


def test_kernel_check_rejects_a_factor_whose_exponent_is_beyond_float_range(tmp_path, capsys):
    # 0.5^(10^400) underflows; it read as inf, and kernel-check exited 2 with
    # a numpy RuntimeWarning on stderr and NaN in its JSON
    text = _kernel_text([[[1], [[1.0, [0.5], 0]]]], rows=["1" + "0" * 400])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _kernel_check(tmp_path, capsys, text, "--format", "json")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: kernel file entry 0: atom delta (0.5,) underflows a dilation factor to 0\n"


def test_kernel_check_rejects_an_entry_scale_beyond_float_range(tmp_path, capsys, mean_zero_tensor):
    # 2.0**1100 raised OverflowError, a traceback out of kernel-check --M
    entry = KernelEntry(PROD2, [ScaledAtom(1.0, mean_zero_tensor, (1.0, 1.0))])
    seq = DyadicKernelSeq(PROD2, 0.75, {(1100, 1): entry})
    message = "entry (1100, 1): the scale 2^1100 is beyond float range (2^1023 at most)"
    with pytest.raises(ValueError, match=re.escape(message)):
        kernel_sum(seq, np.zeros((1, 2)))
    path = tmp_path / "far.json"
    save_kernel_sequence(seq, path)
    assert main(["kernel-check", "--kernel", str(path)]) == EXIT_BOUNDED
    capsys.readouterr()
    assert main(["kernel-check", "--kernel", str(path), "--M", "2000"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_kernel_check_reports_exact_zero_slice_counts(tmp_path, capsys, mean_zero_bump):
    # k = (1, 1): both slices of the first atom are exact zeros; the unit-mass
    # first axis of the second atom leaves slice mu = 1 to the sampled grid
    atoms = [_CANCELLING * 2, _UNIT + _CANCELLING]
    terms = [[1.0, [1.0, 1.0], 0], [1.0, [1.0, 1.0], 1]]
    text = _kernel_text([[[1, 1], terms]], atoms, rows=["1 0", "0 1"])
    code, out, _ = _kernel_check(tmp_path, capsys, text, "--format", "json")
    cancel = json.loads(out)["cancellation"]
    assert code == EXIT_UNBOUNDED
    assert (cancel["slices"], cancel["exact_zero_slices"]) == (2, 1)
    assert [(f["k"], f["mu"]) for f in cancel["failures"]] == [([1, 1], 0)]
    code, out, _ = _kernel_check(tmp_path, capsys, text)
    assert out.splitlines()[0].endswith(" (1 of 2 slices exact zero)")


# Kernel files from a small alphabet.  Half of the draws are well formed,
# with coefficients and scales up to 1e308, so that they reach the
# cancellation and bound checks; the other half carry one fault: any value
# of the file replaced by one of another JSON type or arity, by NaN or an
# infinity, or by a number beyond float range; any item or key deleted; an
# unknown key added; an entry repeated; or the text cut short.
_SCHEMES = ("1", "1 0 ; 0 1", "1 0 ; 0 1", "2 0 ; 1 1", "1 1/2 ; 0 1", "1 0 ; 0 1 ; 1 1")
_COEFS = (1.0, -1.0, 0.5, 2, 0, 1e308, -1e308)
_SCALES = (1.0, 1.0, 0.5, 3, 1e308, 1e-300)
_AXES = (_CANCELLING[0],) * 3 + (_UNIT[0], [[1e308, 0.0, 0.5], [-1e308, 0.5, 0.5]])
_BAD_VALUES = (
    "null", "true", '"x"', "[]", "{}", "-1.0", "0", "1.5", "3", "NaN", "-Infinity", "1e400", "1" + "0" * 400,
    "[1.0, 2.0]", "[[1.0, 0.0, 0.25]]",
)


def _json_paths(node, path=()):
    """The path of every value in a JSON document, the document's own () first."""
    yield path
    items = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    for key, child in items:
        yield from _json_paths(child, (*path, key))


@st.composite
def _fuzzed_kernel_text(draw):
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731
    fault = pick(("none",) * 5 + ("value", "value", "delete", "key", "repeat", "cut"))
    rows = pick(_SCHEMES).split(" ; ")
    n_t, nu = len(rows), len(rows[0].split())
    atoms = [[pick(_AXES) for _ in range(n_t)] for _ in range(draw(st.integers(1, 3)))]
    entries = [
        [list(k), [[pick(_COEFS), [pick(_SCALES) for _ in range(nu)], draw(st.integers(0, len(atoms) - 1))]
                   for _ in range(draw(st.integers(0, 3)))]]
        for k in draw(st.lists(st.tuples(*[st.integers(0, 3)] * nu), max_size=4, unique=True))
    ]
    data = json.loads(_kernel_text(entries, atoms, rows, pick((1.0, 2.5, 1e308))))
    paths = list(_json_paths(data))
    if fault == "value":
        path = pick(paths)
        return _with_raw(data, path, pick(_BAD_VALUES)) if path else pick(_BAD_VALUES)
    if fault == "delete" and len(paths) > 1:
        *parents, last = pick(paths[1:])
        target = data
        for key in parents:
            target = target[key]
        del target[last]
    elif fault == "key":
        data[pick(("N", "nu", "e", "b"))] = 1
    elif fault == "repeat" and entries:
        data["entries"].insert(draw(st.integers(0, len(entries))), pick(data["entries"]))
    text = json.dumps(data)
    return text[: draw(st.integers(0, len(text) - 1))] if fault == "cut" else text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_fuzzed_kernel_text(), st.sampled_from([(), (), ("--M", "2"), ("--format", "json")]))
def test_fuzzed_kernel_files_exit_cleanly(text, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = main(["kernel-check", "--kernel", path, *extra])
    assert code in (EXIT_BOUNDED, EXIT_ERROR, EXIT_UNBOUNDED)
    if code == EXIT_ERROR:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert err.getvalue() == "" and out.getvalue().startswith(("cancellation: ", "{"))


# entry (0, 0) is dilated by delta = (1, 1e-300), so its support box reaches
# about 5e299; entry (1, 0)'s slice is sampled, its inner coefficients
# summing to 0.1 + 0.2 - 0.3 != 0 in floats
_WIDE_SUPPORT_KERNEL = _kernel_text(
    [[[0, 0], [[1.0, [1.0, 1e-300], 0]]], [[1, 0], [[1.0, [2.0, 1.0], 1]]]],
    [_CANCELLING * 2, [[[0.1, 0.0, 0.25], [0.2, 0.25, 0.25], [-0.3, 0.5, 0.25]], [[1.0, 0.0, 0.25]]]],
    rows=["1 0", "0 1"],
)

_WIDE_SUPPORT_TEXT = """cancellation: FAIL (max slice integral 5.785e-16, tol 1.0e-09) (0 of 1 slices exact zero)
  support violated at k=(0, 0): radius 4.9999999999999995e+299
"""


def test_cancellation_report_numbers_are_python_numbers(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(_WIDE_SUPPORT_KERNEL)
    report = verify_cancellation(load_kernel_sequence(path))
    numbers = [report.max_abs, report.tolerance, report.exact_zero_slices]
    for c in report.checks:
        numbers += [*c.index, c.mu, c.max_abs]
    for k, radius in report.support_violations:
        numbers += [*k, radius]
    assert all(type(x) in (int, float) for x in numbers), [type(x) for x in numbers]
    assert report.support_violations == (((0, 0), 4.9999999999999995e299),)
    # both outputs as they read when the radius was a numpy float
    assert main(["kernel-check", "--kernel", str(path), "--format", "json"]) == EXIT_UNBOUNDED
    cancellation = json.loads(capsys.readouterr().out)["cancellation"]
    assert cancellation["support_violations"] == [{"k": [0, 0], "radius": 4.9999999999999995e299}]
    assert cancellation["max_abs_slice_integral"] == 5.785164601857024e-16
    assert main(["kernel-check", "--kernel", str(path)]) == EXIT_UNBOUNDED
    assert capsys.readouterr().out == _WIDE_SUPPORT_TEXT
