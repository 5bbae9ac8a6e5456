import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpradon.bumps import TensorBump
from mpradon.harness import (
    NORM_METHOD,
    DiscretizedOperator,
    Grid1D,
    NormResult,
    _TapGroup,
    build_operator,
    case_polynomial,
    dyadic_scales,
    growth_experiment,
    operator_norm,
    smooth_fft_length,
    square_scales,
)
from mpradon.symbolic import Polynomial

ST = ("s", "t")


def P(text: str) -> Polynomial:
    return Polynomial.parse(text, ST)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, 0.0, 8)
    with pytest.raises(ValueError):
        Grid1D(-1.0, 1.0, 1)
    g = Grid1D(-1.0, 1.0, 5)
    assert g.h == pytest.approx(0.5)
    assert np.allclose(g.nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_zero_kernel_gives_zero(mean_zero_tensor):
    grid = Grid1D(n=256)
    op = DiscretizedOperator(grid, [])
    f = np.sin(grid.nodes())
    assert np.all(op.apply(f) == 0.0)
    assert operator_norm(op).value == 0.0


def test_identity_flow_mean_one_atom(mean_one_bump):
    atom = TensorBump((mean_one_bump, mean_one_bump))
    grid = Grid1D(n=512)
    op = build_operator(Polynomial.zero(ST), [(1.0, 1.0)], grid, atom=atom)
    x = grid.nodes()
    f = np.exp(-(x**2))
    out = op.apply(f)
    # p = 0: the displacement is identically zero, so T f = (mass of atom) f
    assert np.max(np.abs(out - f)) < 1e-10


def test_identity_flow_norm_near_one(mean_one_bump):
    atom = TensorBump((mean_one_bump, mean_one_bump))
    op = build_operator(Polynomial.zero(ST), [(1.0, 1.0)], Grid1D(n=2048), atom=atom)
    res = operator_norm(op)
    assert 0.99 <= res.value <= 1.0 + 1e-9


def test_linearity(mean_zero_tensor):
    grid = Grid1D(n=400)
    op = build_operator(P("s + s*t"), dyadic_scales(3), grid, atom=mean_zero_tensor)
    rng = np.random.default_rng(1)
    f, g = rng.normal(size=400), rng.normal(size=400)
    lhs = op.apply(2.5 * f - 3.0 * g)
    rhs = 2.5 * op.apply(f) - 3.0 * op.apply(g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_adjoint_is_exact_transpose(mean_zero_tensor):
    grid = Grid1D(n=300)
    op = build_operator(P("s*t"), dyadic_scales(2), grid, atom=mean_zero_tensor)
    mat = op.as_matrix()
    basis = np.eye(300)
    adj = np.stack([op.apply_adjoint(basis[:, j]) for j in range(300)], axis=1)
    assert np.max(np.abs(adj - mat.T)) < 1e-11 * max(1.0, np.max(np.abs(mat)))


def test_operator_norm_against_dense_svd(mean_zero_tensor):
    grid = Grid1D(n=384)
    cases = (
        (P("s*t"), dyadic_scales(2)),
        (P("s + s*t"), square_scales(2)),
        # the band (369 taps) is about n: the finite section's norm sits more
        # than 1% below the symbol sup, which is therefore not an answer here
        (case_polynomial("know", 10), dyadic_scales(8)),
    )
    for p, scales in cases:
        op = build_operator(p, scales, grid, atom=mean_zero_tensor)
        sv = np.linalg.svd(op.as_matrix(), compute_uv=False)[0]
        res = operator_norm(op, max_iters=4000, tol=1e-14)
        assert res.converged
        assert res.value == pytest.approx(sv, rel=1e-8)
        assert res.value <= sv * (1 + 1e-12)
        default = operator_norm(op)
        assert default.converged and default.iterations <= 80
        assert sv * (1 - 1e-6) <= default.value <= sv * (1 + 1e-12)
    # for the last (know) case, returning the symbol sup would fail the test
    symbol_sup = np.abs(np.fft.rfft(op._taps, 1 << 16)).max()
    assert symbol_sup > 1.01 * sv


@st.composite
def banded_sections(draw):
    """Random tap profiles whose combined band spans at most n/2."""
    n = draw(st.integers(2, 256))
    span = max(1, n // 2)
    shift = draw(st.integers(-n, n))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        band = draw(st.integers(1, span))
        lo = draw(st.integers(0, span - band))
        taps = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=band, max_size=band))
        groups.append(_TapGroup(draw(st.integers(1, 3)), shift + lo, np.array(taps)))
    return DiscretizedOperator(Grid1D(n=n), groups)


@settings(max_examples=80, deadline=None)
@given(banded_sections())
def test_operator_norm_matches_dense_svd_on_random_sections(op):
    sv = np.linalg.svd(op.as_matrix(), compute_uv=False)[0]
    # FFT application leaves absolute noise of order eps * sum |w| in both
    # values, e.g. when every shift lands outside the grid and T = 0
    noise = 1e-13 * np.abs(op._taps).sum()
    res = operator_norm(op)
    # a Rayleigh quotient never overshoots; a converged flag is never a lie
    assert res.value <= sv * (1 + 1e-12) + noise
    assert not res.converged or res.value >= sv * (1 - 1e-6) - noise
    assert res.converged or res.iterations == 80
    # with room for the whole space the stopping rule, not the cap, decides
    full = operator_norm(op, max_iters=op.grid.n)
    assert full.converged
    assert sv * (1 - 1e-6) - noise <= full.value <= sv * (1 + 1e-12) + noise


def test_smooth_fft_length_is_the_least_five_smooth_bound():
    smooth = sorted(
        2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(7) if 2**a * 3**b * 5**c <= 8192
    )
    for m in range(1, 5001):
        assert smooth_fft_length(m) == next(x for x in smooth if x >= m)


def test_block_application_matches_row_by_row(mean_zero_tensor):
    grid = Grid1D(n=300)
    rng = np.random.default_rng(3)
    block = rng.normal(size=(5, 300))
    for p, scales in ((P("s + s*t"), square_scales(2)), (P("s*t"), dyadic_scales(3))):
        op = build_operator(p, scales, grid, atom=mean_zero_tensor)
        assert op.fft_length == smooth_fft_length(300 + op.band - 1)
        for method in (op.apply, op.apply_adjoint):
            rows = np.stack([method(f) for f in block])
            together = method(block)
            assert together.shape == block.shape
            assert np.max(np.abs(together - rows)) <= 1e-14 * np.max(np.abs(rows))


def _same_groups(a: DiscretizedOperator, b: DiscretizedOperator) -> bool:
    return [(g.count, g.lo, g.taps.tobytes()) for g in a.groups] == [
        (g.count, g.lo, g.taps.tobytes()) for g in b.groups
    ]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["kitty", "know", "billy"]),
    st.integers(0, 20),
    st.lists(st.integers(0, 6), min_size=1, max_size=5),
)
def test_growth_rows_compose_the_operators_built_alone(case, level, m_list):
    """Every row operator growth_experiment composes from the table's one
    build has the groups (count, lo, taps bytes, order) of building it alone."""
    import mpradon.harness as harness

    grid = Grid1D(n=256)
    p = case_polynomial(case, level)
    family = square_scales if case == "billy" else dyadic_scales
    composed = []
    restricted = DiscretizedOperator.restricted

    def recording(self, terms):
        composed.append(restricted(self, terms))
        return composed[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiscretizedOperator, "restricted", recording)
        # the composition is under test here, not the norm
        mp.setattr(harness, "operator_norm", lambda op, **kwargs: NormResult(1.0, 1, True))
        table = growth_experiment(case, m_list, level=level, grid=grid)
    expected_ms = list(dict.fromkeys(m_list)) + ([] if 0 in m_list else [0])
    assert len(composed) == len(expected_ms)
    for m, op in zip(expected_ms, composed):
        alone = build_operator(p, family(m), grid)
        assert _same_groups(op, alone)
        assert np.array_equal(op._taps, alone._taps)
    for row in table.rows:
        alone = build_operator(p, family(row.truncation), grid)
        assert (row.band, row.fft_length) == (alone.band, alone.fft_length)


def test_kitty_ratios_are_exact_and_rows_reuse_one_norm():
    table = growth_experiment("kitty", list(range(9)), grid=Grid1D(n=512))
    assert table.ratios() == [float(m + 1) for m in range(9)]
    assert len({(r.iterations, r.converged) for r in table.rows}) == 1
    assert all(r.norm == (r.truncation + 1) * table.rows[0].norm for r in table.rows)
    without_base = growth_experiment("kitty", [5, 2], grid=Grid1D(n=512))
    assert without_base.ratios() == [6.0, 3.0]


def test_kitty_terms_collapse_to_one_group(mean_zero_tensor):
    grid = Grid1D(n=512)
    op = build_operator(P("s*t"), dyadic_scales(6), grid, atom=mean_zero_tensor)
    assert len(op.groups) == 1
    assert op.groups[0].count == 7


def test_kitty_output_is_exact_multiple(mean_zero_tensor):
    grid = Grid1D(n=512)
    op1 = build_operator(P("s*t"), dyadic_scales(0), grid, atom=mean_zero_tensor)
    op7 = build_operator(P("s*t"), dyadic_scales(6), grid, atom=mean_zero_tensor)
    rng = np.random.default_rng(8)
    f = rng.normal(size=512)
    assert np.array_equal(op7.apply(f), 7.0 * op1.apply(f))


def test_know_terms_stay_distinct():
    op = build_operator(case_polynomial("know", 20), dyadic_scales(4), Grid1D(n=512))
    assert len(op.groups) == 5


def test_nonconvergence_is_flagged(mean_zero_tensor):
    op = build_operator(P("s + s*t"), dyadic_scales(3), Grid1D(n=512), atom=mean_zero_tensor)
    res = operator_norm(op, max_iters=3, tol=1e-16)
    assert not res.converged
    assert res.iterations == 3
    assert res.value > 0


def test_case_polynomials():
    assert case_polynomial("kitty") == P("s*t")
    assert case_polynomial("billy") == P("s + s*t")
    know = case_polynomial("know", 3)
    assert know == P("1/8*s^3 + 1/8*t^3 + s*t")
    with pytest.raises(ValueError):
        case_polynomial("know")
    with pytest.raises(ValueError):
        case_polynomial("nope")


def test_growth_table_output_formats():
    table = growth_experiment("kitty", [0, 1], grid=Grid1D(n=256), max_iters=50)
    csv_text = table.to_csv()
    assert "M,L,norm,ratio" in csv_text
    assert csv_text.startswith("# case=kitty") or "# case=kitty" in csv_text
    data = table.to_dict()
    assert data["case"] == "kitty"
    assert [r["M"] for r in data["rows"]] == [0, 1]
    assert data["rows"][1]["ratio"] == pytest.approx(2.0, rel=1e-12)
    assert data["norm_method"] == NORM_METHOD
    assert f"norm_method={NORM_METHOD}" in csv_text.splitlines()[0]
    assert all(r["converged"] for r in data["rows"])


def test_growth_experiment_builds_each_operator_once(monkeypatch):
    import mpradon.harness as harness

    calls = {"build": 0, "bump": 0}
    build, bump = harness.build_operator, harness.moment_bump

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    def counting_bump(*args, **kwargs):
        calls["bump"] += 1
        return bump(*args, **kwargs)

    monkeypatch.setattr(harness, "build_operator", counting_build)
    monkeypatch.setattr(harness, "moment_bump", counting_bump)
    with_base = growth_experiment("billy", [0, 1, 2], grid=Grid1D(n=256))
    assert calls == {"build": 1, "bump": 1}
    without_base = growth_experiment("billy", [1, 2], grid=Grid1D(n=256))
    assert calls == {"build": 2, "bump": 2}
    assert without_base.ratios() == with_base.ratios()[1:]


def test_unconverged_rows_are_flagged_in_text(monkeypatch, capsys):
    import functools

    import mpradon.cli as cli

    monkeypatch.setattr(cli, "growth_experiment", functools.partial(growth_experiment, max_iters=3))
    assert cli.main(["norm-growth", "--case", "billy", "--M", "0 1", "--grid-n", "256"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith("(not converged after 3 iterations)") for line in lines[1:])


def test_growth_experiment_determinism():
    a = growth_experiment("billy", [0, 2], grid=Grid1D(n=256), max_iters=60)
    b = growth_experiment("billy", [0, 2], grid=Grid1D(n=256), max_iters=60)
    assert a.to_json() == b.to_json()


def test_quadrature_order_stability():
    vals = []
    for order in (16, 24):
        op = build_operator(case_polynomial("billy"), square_scales(3), Grid1D(n=1024), quad_order=order)
        vals.append(operator_norm(op, max_iters=800).value)
    assert abs(vals[1] - vals[0]) / vals[0] < 1e-3
