import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpradon.bumps import TensorBump
from mpradon.dilations import MAX_TRUNCATION, check_truncations
from mpradon.harness import (
    MAX_GRID_N,
    NORM_METHOD,
    DiscretizedOperator,
    Grid1D,
    NormResult,
    _TapGroup,
    build_operator,
    dyadic_scales,
    growth_experiment,
    operator_norm,
    smooth_fft_length,
    square_scales,
)
from mpradon.quadrature import MAX_QUAD_ORDER, legendre_rule
from mpradon.symbolic import Polynomial
from mpradon.symbolic.gamma import case_polynomial

ST = ("s", "t")


def P(text: str) -> Polynomial:
    return Polynomial.parse(text, ST)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, 0.0, 8)
    with pytest.raises(ValueError):
        Grid1D(-1.0, 1.0, 1)
    for xmin, xmax in [(np.nan, 1.0), (-1.0, np.nan), (-np.inf, 1.0), (-1.0, np.inf), (-1e308, 1e308)]:
        with pytest.raises(ValueError, match="must be finite"):
            Grid1D(xmin, xmax, 8)
    with pytest.raises(ValueError, match="beyond the cap"):
        Grid1D(-1.0, 1.0, MAX_GRID_N + 1)
    assert Grid1D(-1.0, 1.0, MAX_GRID_N).n == MAX_GRID_N
    g = Grid1D(-1.0, 1.0, 5)
    assert g.h == pytest.approx(0.5)
    assert np.allclose(np.linspace(g.xmin, g.xmax, g.n), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_zero_kernel_gives_zero(mean_zero_tensor):
    grid = Grid1D(n=256)
    op = DiscretizedOperator(grid, [])
    f = np.sin(np.linspace(grid.xmin, grid.xmax, grid.n))
    assert np.all(op.apply(f) == 0.0)
    assert operator_norm(op).value == 0.0


def test_identity_flow_mean_one_atom(mean_one_bump):
    atom = TensorBump((mean_one_bump, mean_one_bump))
    grid = Grid1D(n=512)
    op = build_operator(Polynomial.zero(ST), [(1.0, 1.0)], grid, atom=atom)
    x = np.linspace(grid.xmin, grid.xmax, grid.n)
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
def banded_group_lists(draw, extra: int = 0):
    """A grid size and random tap groups whose combined band spans at most
    n/2: 1-3 groups, then ``extra`` more."""
    n = draw(st.integers(2, 256))
    span = max(1, n // 2)
    shift = draw(st.integers(-n, n))
    groups = []
    for _ in range(draw(st.integers(1, 3)) + extra):
        band = draw(st.integers(1, span))
        lo = draw(st.integers(0, span - band))
        taps = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=band, max_size=band))
        groups.append(_TapGroup(draw(st.integers(1, 3)), shift + lo, np.array(taps)))
    return n, groups


def banded_sections():
    return banded_group_lists().map(lambda drawn: DiscretizedOperator(Grid1D(n=drawn[0]), drawn[1]))


def assert_norm_contract(res: NormResult, op: DiscretizedOperator, sv: float) -> None:
    """A Rayleigh quotient never overshoots; a converged value is within 1e-6 of the top."""
    # FFT application leaves absolute noise of order eps * sum |w| in both
    # values, e.g. when every shift lands outside the grid and T = 0
    noise = 1e-13 * np.abs(op._taps).sum()
    assert res.value <= sv * (1 + 1e-12) + noise
    assert not res.converged or res.value >= sv * (1 - 1e-6) - noise


@settings(max_examples=80, deadline=None)
@given(banded_sections())
def test_operator_norm_matches_dense_svd_on_random_sections(op):
    sv = np.linalg.svd(op.as_matrix(), compute_uv=False)[0]
    res = operator_norm(op)
    assert_norm_contract(res, op, sv)
    assert res.converged or res.iterations == 80
    # with room for the whole space the stopping rule, not the cap, decides
    full = operator_norm(op, max_iters=op.grid.n)
    assert full.converged
    assert_norm_contract(full, op, sv)


@settings(max_examples=80, deadline=None)
@given(banded_group_lists(extra=1))
def test_warm_started_norm_matches_dense_svd_on_random_section_pairs(drawn):
    """A section, then the same section plus one more group, started from
    the first one's top Ritz vectors, as a growth table's next row is."""
    n, groups = drawn
    first = operator_norm(DiscretizedOperator(Grid1D(n=n), groups[:-1]))
    assert first.vectors.shape[1] == n and first.vectors.shape[0] <= 8
    op = DiscretizedOperator(Grid1D(n=n), groups)
    sv = np.linalg.svd(op.as_matrix(), compute_uv=False)[0]
    res = operator_norm(op, start=first.vectors)
    assert_norm_contract(res, op, sv)
    assert res.converged or res.iterations == 80


@pytest.mark.parametrize(
    "n, first, more",
    [
        # a shift with a tiny second tap: its top singular value is 5-fold
        (48, [_TapGroup(1, 22, np.array([1.0]))], [_TapGroup(1, 1, np.array([6.10351562e-05]))]),
        (
            167,
            [],
            [_TapGroup(1, 46, np.array([0.58507035])), _TapGroup(1, 31, np.array([0.58507035])), _TapGroup(1, 31, np.array([-0.58524947]))],
        ),
        (232, [], [_TapGroup(1, -145, np.array([1.40129846e-45, -0.48473984, 0.772172243, 0.133815285])), _TapGroup(1, -91, np.array([0.47322539]))]),
    ],
)
def test_norm_does_not_stop_where_the_preconditioned_expansion_stalls(n, first, more):
    """Sections on which the top Ritz value stood still for a step, or for
    good under preconditioned steps alone, more than 1e-6 below the top."""
    op = DiscretizedOperator(Grid1D(n=n), first + more)
    sv = np.linalg.svd(op.as_matrix(), compute_uv=False)[0]
    start = operator_norm(DiscretizedOperator(Grid1D(n=n), first)).vectors if first else None
    for max_iters in (80, n):
        assert_norm_contract(operator_norm(op, max_iters=max_iters, start=start), op, sv)


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
    # rows are composed in increasing M, with M = 0 for the ratios' base
    expected_ms = sorted({0, *m_list})
    assert len(composed) == len(expected_ms)
    for m, op in zip(expected_ms, composed):
        alone = build_operator(p, family(m), grid)
        assert _same_groups(op, alone)
        assert np.array_equal(op._taps, alone._taps)
    for row in table.rows:
        alone = build_operator(p, family(row.M), grid)
        assert (row.band, row.fft_length) == (alone.band, alone.fft_length)


def test_kitty_ratios_are_exact_and_rows_reuse_one_norm():
    table = growth_experiment("kitty", list(range(9)), grid=Grid1D(n=512))
    assert table.ratios() == [float(m + 1) for m in range(9)]
    assert len({(r.iterations, r.converged) for r in table.rows}) == 1
    assert all(r.norm == (r.M + 1) * table.rows[0].norm for r in table.rows)
    without_base = growth_experiment("kitty", [5, 2], grid=Grid1D(n=512))
    assert without_base.ratios() == [6.0, 3.0]


@pytest.mark.parametrize("case, level, m_max", [("know", 10, 8), ("billy", None, 12)])
def test_warm_started_table_rows_match_their_dense_svd(case, level, m_max):
    grid = Grid1D(n=256)
    table = growth_experiment(case, list(range(m_max + 1)), level=level, grid=grid)
    family = square_scales if case == "billy" else dyadic_scales
    for row in table.rows:
        assert row.converged
        op = build_operator(case_polynomial(case, level), family(row.M), grid)
        sv = np.linalg.svd(op.as_matrix(), compute_uv=False)[0]
        assert_norm_contract(NormResult(row.norm, row.iterations, row.converged), op, sv)


def test_kitty_profile_norm_converges_in_few_applications():
    """The symbol-preconditioned expansion reaches the dense SVD of kitty's
    n = 512 profile in at most 20 applications of T*T."""
    grid = Grid1D(n=512)
    op = build_operator(case_polynomial("kitty"), dyadic_scales(0), grid)
    sv = np.linalg.svd(op.as_matrix(), compute_uv=False)[0]
    res = operator_norm(op)
    assert res.converged and res.iterations <= 20
    assert abs(res.value - sv) <= 1e-8 * sv


def test_each_row_starts_from_the_previous_rows_ritz_vectors():
    import mpradon.harness as harness

    calls = []

    def recording(op, **kwargs):
        res = operator_norm(op, **kwargs)
        calls.append((kwargs.get("start"), res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "operator_norm", recording)
        table = growth_experiment("know", [4, 2, 3], level=10, grid=Grid1D(n=256))
    # M = 0 (one profile, started cold), then M = 2, 3, 4
    assert [r.M for r in table.rows] == [4, 2, 3]
    assert len(calls) == 4 and calls[0][0] is None
    for (_, before), (start, _) in zip(calls, calls[1:]):
        assert start is before.vectors
    assert all(res.vectors.shape == (harness._WARM_VECTORS, 256) for _, res in calls)
    assert [(r.norm, r.iterations) for r in table.rows] == [
        (res.value, res.iterations) for _, res in (calls[3], calls[1], calls[2])
    ]


def test_truncation_cap():
    check_truncations([0, MAX_TRUNCATION])
    assert np.isfinite(dyadic_scales(MAX_TRUNCATION)[-1]).all()
    for bad in ([MAX_TRUNCATION + 1], [0, -1]):
        with pytest.raises(ValueError, match=f"must lie in \\[0, {MAX_TRUNCATION}\\]"):
            check_truncations(bad)
        with pytest.raises(ValueError, match="must lie in"):
            growth_experiment("kitty", bad, grid=Grid1D(n=64))


def test_quadrature_order_cap():
    assert legendre_rule(MAX_QUAD_ORDER)[0].size == MAX_QUAD_ORDER
    for bad in (0, MAX_QUAD_ORDER + 1):
        with pytest.raises(ValueError, match="quadrature order"):
            legendre_rule(bad)


def test_terms_with_identical_taps_collapse():
    # the second node's shift leaves the grid in both profiles, so the
    # profiles differ but their taps do not
    grid = Grid1D(0.0, 7.0, 8)
    quad_values = np.array([1.0, 1.0])
    op = DiscretizedOperator.from_terms(grid, [np.array([0.25, 100.0]), np.array([0.25, 200.0])], quad_values)
    assert [(g.count, g.lo, g.taps.tolist()) for g in op.groups] == [(2, 0, [0.75, 0.25])]
    assert op.term_groups == (0, 0)


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
    assert csv_text.splitlines()[1] == "M,L,norm,ratio,iterations,converged"
    assert csv_text.startswith("# case=kitty")
    data = json.loads(table.to_json())
    assert data["case"] == "kitty"
    assert data["grid"] == vars(table.grid)
    assert data["rows"] == [vars(row) for row in table.rows]
    assert [r["M"] for r in data["rows"]] == [0, 1]
    assert data["rows"][1]["ratio"] == pytest.approx(2.0, rel=1e-12)
    assert data["norm_method"] == NORM_METHOD
    assert f"norm_method={NORM_METHOD}" in csv_text.splitlines()[0]
    assert all(r["converged"] for r in data["rows"])


def test_growth_table_csv_reads_back_past_its_comment_line():
    # the comment line was quoted for its commas ('"# case=...'), so a reader
    # that drops '#' lines took it for the header
    table = growth_experiment("kitty", [0, 1, 2], grid=Grid1D(n=256), max_iters=50)
    lines = table.to_csv().splitlines()
    assert lines[0].startswith("# ") and sum(line.startswith("#") for line in lines) == 1
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    assert [int(r["M"]) for r in rows] == [0, 1, 2]
    assert [float(r["norm"]) for r in rows] == [r.norm for r in table.rows]
    assert [float(r["ratio"]) for r in rows] == [r.ratio for r in table.rows]
    assert all(r["L"] == "" and r["converged"] == "true" for r in rows)


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


def test_unconverged_rows_are_flagged_in_csv(monkeypatch, capsys):
    import functools

    import mpradon.cli as cli

    monkeypatch.setattr(cli, "growth_experiment", functools.partial(growth_experiment, max_iters=3))
    argv = ["norm-growth", "--case", "billy", "--M", "0 1", "--grid-n", "256", "--format", "csv"]
    assert cli.main(argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
    assert [r["M"] for r in rows] == ["0", "1"]
    assert all(r["iterations"] == "3" and r["converged"] == "false" for r in rows)


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
