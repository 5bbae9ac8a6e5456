import json
import math
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpradon.bumps import BumpCombination, TensorBump, moment_bump, tensor_bump
from mpradon.cli import EXIT_BOUNDED, EXIT_ERROR, EXIT_UNBOUNDED, main
from mpradon.dilations import ExponentScheme, dilation_factors
from mpradon.kernels import (
    CancellationReport,
    DyadicKernelSeq,
    KernelEntry,
    ScaledAtom,
    SliceCheck,
    UnsupportedKernel,
    dirac_delta_sequence,
    dyadic_source_sum,
    load_kernel_sequence,
    regroup_to_dyadic,
    sample_product_kernel_bounds,
    save_kernel_sequence,
    telescope_decompose,
    telescope_source_sum,
    verify_cancellation,
)
from mpradon.quadrature import integrate_adaptive, tensor_grid

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
        scaled = verify_cancellation(seq.scaled((0.5, 3.0))).max_abs <= 1e-9
        assert base == scaled == expected


def _factors(entry: KernelEntry, sa: ScaledAtom) -> tuple[np.ndarray, float]:
    f = np.array(dilation_factors(sa.delta, entry.scheme), dtype=float)
    return f, float(np.prod(f))


def adaptive_cancellation(
    seq: DyadicKernelSeq,
    tolerance: float = 1e-9,
    quad_order: int = 24,
    grid_per_axis: int = 9,
) -> CancellationReport:
    """The reference: each inner 1-D factor integral by adaptive Gauss-Legendre."""
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
            inner = set(seq.scheme.slice_coordinates(mu))
            outer = [i for i in range(seq.scheme.n_t) if i not in inner]
            # per-atom: coefficient * jacobian * prod of inner 1-D integrals
            reduced: list[tuple[float, ScaledAtom]] = []
            for sa in entry.atoms:
                factors, jac = _factors(entry, sa)
                weight = sa.coef * jac
                for i in sorted(inner):
                    lo, hi = sa.atom.support_box()[i]
                    lo, hi = lo / factors[i], hi / factors[i]
                    factor_fn = sa.atom.factors[i]
                    f_i = factors[i]
                    weight *= integrate_adaptive(
                        lambda u: factor_fn(f_i * u), lo, hi, tol=1e-13, order=quad_order
                    )
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
                worst = abs(sum(weight for weight, _ in reduced))
            checks.append(SliceCheck(k, mu, worst))
    return CancellationReport(tuple(checks), tuple(violations), tolerance)


# (a, a1, excluded) of moment bumps on which both readings of the slice
# integrals of a telescoped kernel stay below 1.3e-12.  Each reading's float
# error grows with the atom coefficients times the outer values: for
# (0.5, 2, (1, 4)) adaptive quadrature reads 1.9e-9 where the closed form
# reads 0, and for (0.5, 3, (2, 4)) it does not converge.
REFERENCE_BUMPS = ((0.5, 1, ()), (0.5, 2, ()), (1.0, 1, ()), (1.0, 2, ()), (1.0, 3, ()), (1.0, 1, (4,)))


@st.composite
def _kernel_sequences(draw):
    """Regrouped or telescoped sequences, nu in {1, 2}, M <= 6; in about half
    of them one axis carries a unit-mass atom, so its slices cannot cancel."""
    nu = draw(st.sampled_from([1, 2]))
    factors = [moment_bump(*draw(st.sampled_from(REFERENCE_BUMPS))).bump] * nu
    if draw(st.booleans()):
        x, r = draw(st.floats(-0.5, 0.5)), draw(st.floats(0.05, 1.0))
        factors[draw(st.integers(0, nu - 1))] = BumpCombination(((1.0, x, r),))
    atom, scheme = tensor_bump(factors), ExponentScheme.product(nu)
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
    return telescope_decompose(lambda k: atom, m_j, v, m_max, scheme)


@settings(max_examples=60, deadline=None)
@given(_kernel_sequences())
def test_exact_slice_masses_match_adaptive_quadrature(seq):
    exact, reference = verify_cancellation(seq), adaptive_cancellation(seq)
    assert [(c.index, c.mu) for c in exact.checks] == [(c.index, c.mu) for c in reference.checks]
    for new, old in zip(exact.checks, reference.checks):
        assert type(new.max_abs) is float
        assert abs(new.max_abs - old.max_abs) <= 1e-11 + 1e-12 * abs(old.max_abs)
    assert exact.passed == reference.passed
    assert exact.support_violations == reference.support_violations


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


@pytest.mark.parametrize("field", ["coefficient", "delta", "triple", "radius"])
def test_kernel_file_rejects_non_finite_numbers(tmp_path, capsys, mean_zero_tensor, field):
    seq = regroup_to_dyadic(mean_zero_tensor, (700.0, 900.0), (1.0, -1.0), 3)
    path = tmp_path / "kernel.txt"
    save_kernel_sequence(seq, path)
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("atom "))
    head, _, axes = lines[at].partition(" : ")
    coef, _, delta = head[len("atom "):].partition(" @ ")
    if field == "coefficient":
        lines[at] = f"atom nan @ {delta} : {axes}"
    elif field == "delta":
        lines[at] = f"atom {coef} @ {delta.split()[0]} inf : {axes}"
    elif field == "triple":
        c, x, r = axes.split(";")[0].split(",")
        lines[at] = lines[at].replace(f"{c},{x},{r}", f"{c},{x},nan", 1)
    else:
        lines = ["a = -inf" if ln.startswith("a = ") else ln for ln in lines]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        load_kernel_sequence(path)
    assert main(["kernel-check", "--kernel", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and err.count("\n") == 1


def test_dirac_is_rejected():
    with pytest.raises(UnsupportedKernel):
        dirac_delta_sequence(PROD2, 0.5)


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
    lhs, rhs = seq(pts), source(pts)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_regroup_identity_fractional_tau(mean_zero_tensor):
    tau = (700.0, 11.5)
    seq = regroup_to_dyadic(mean_zero_tensor, tau, (1.0, -0.5), 4)
    source = dyadic_source_sum(mean_zero_tensor, tau, (1.0, -0.5), 4)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.06, 0.06, size=(10_000, 2))
    scale = np.max(np.abs(source(pts)))
    assert np.max(np.abs(seq(pts) - source(pts))) <= 1e-12 * max(1.0, scale)
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
        sups.append(max(e.sup_norm_sampled(60) for e in seq.entries.values()))
        c1s.append(max(e.c1_norm_sampled(60) for e in seq.entries.values()))
        c2s.append(max(e.cm_norm_sampled(2, 60) for e in seq.entries.values()))
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
    assert np.max(np.abs(seq(pts) - source(pts))) <= 1e-12 * max(1.0, scale)


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
    assert np.max(np.abs(seq(t) - source(t))) <= 1e-12 * max(1.0, scale)


def test_telescope_bracketing_precondition(mean_zero_bump):
    atoms = lambda k: tensor_bump([mean_zero_bump])
    with pytest.raises(ValueError):
        telescope_decompose(atoms, (3,), (2.0**3,), 2, ExponentScheme.product(1))
    with pytest.raises(ValueError):
        telescope_decompose(atoms, (3,), (2.0**5,), 2, ExponentScheme.product(1))


# -- files ------------------------------------------------------------------------


def test_kernel_file_round_trip(tmp_path, mean_zero_tensor):
    seq = regroup_to_dyadic(mean_zero_tensor, (700.0, 900.0), (1.0, -1.0), 3)
    path = tmp_path / "kernel.txt"
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
    # a second save is byte-identical
    path2 = tmp_path / "kernel2.txt"
    save_kernel_sequence(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_kernel_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[kernel]\nN = 2\nnu = 2\n")
    with pytest.raises(ValueError):
        load_kernel_sequence(path)
    path.write_text("not a kernel\n")
    with pytest.raises(ValueError):
        load_kernel_sequence(path)
