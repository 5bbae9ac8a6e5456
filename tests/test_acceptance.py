"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Numbers, tolerances and time budgets are pinned here; nothing is deferred
to later calibration.  The growth experiments run at the library defaults
(grid window [-4, 4], n = 2048, Gauss-Legendre order 24, and the
Rayleigh-Ritz norm started from windowed plane waves at the symbol peaks).
"""

import random
import time
from fractions import Fraction

import numpy as np

from mpradon.bumps import moment_bump, tensor_bump
from mpradon.criteria import (
    Outcome,
    heisenberg_verdict,
    real_line_verdict,
    scalar_control_verdict,
)
from mpradon.dilations import ExponentScheme, degree
from mpradon.harness import (
    Grid1D,
    build_operator,
    dyadic_scales,
    growth_experiment,
    operator_norm,
    square_scales,
)
from mpradon.kernels import regroup_to_dyadic, telescope_decompose, verify_cancellation
from mpradon.quadrature import integrate_adaptive
from mpradon.symbolic import GammaSpec, Polynomial, w_expansion
from mpradon.symbolic.gamma import case_polynomial
from oracles import (
    PolyVectorField,
    dyadic_source_sum,
    kernel_sum,
    lie_bracket,
    scalar_polynomial_expansion,
    scale_function,
    telescope_source_sum,
    verify_taylor_relation,
)

ST = ("s", "t")


def P(text: str) -> Polynomial:
    return Polynomial.parse(text, ST)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}", flush=True)
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_newton_line_reproduction():
    start = time.perf_counter()
    v_st = real_line_verdict(P("s*t"))
    v_cubic = real_line_verdict(P("s^3 + t^3 + s*t"))
    v_mixed = real_line_verdict(P("s + s*t"))
    ok = (
        v_st.outcome is Outcome.UNBOUNDED
        and v_st.witness.alpha0 == (1, 1)
        and v_cubic.outcome is Outcome.UNBOUNDED
        and v_cubic.witness.alpha0 == (1, 1)
        and v_mixed.outcome is Outcome.BOUNDED
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(
        1,
        ok,
        f"st/cubic unbounded with witness (1,1), s+st bounded ({elapsed:.3f} s)",
    )


def test_criterion_2_control_examples():
    square = scalar_control_verdict(scalar_polynomial_expansion(P("s^2 + t^2 + s*t")))
    cubic = scalar_control_verdict(scalar_polynomial_expansion(P("s^3 + t^3 + s*t")))
    heis = heisenberg_verdict(
        GammaSpec.heisenberg(P("s"), P("t"), P("s*t"))
    )
    bracket_certified = heis.outcome is Outcome.BOUNDED and any(
        "[Xhat_(1, 0), Xhat_(0, 1)]" in member
        for cert in heis.certificates
        for sector in cert.sectors
        for member in sector.members
    )
    ok = (
        square.outcome is Outcome.BOUNDED
        and cubic.outcome is Outcome.UNBOUNDED
        and bracket_certified
    )
    _report(
        2,
        ok,
        "t1^2+t2^2+t1t2 controlled, t1^3+t2^3+t1t2 uncontrolled, "
        "(s,t,st) bounded with certificate T = [X, Y]",
    )


def _random_gamma(rng: random.Random) -> GammaSpec:
    def poly() -> Polynomial:
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = (rng.randint(0, 5), rng.randint(0, 5))
            if 0 < sum(e) <= 5:
                terms[e] = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        return Polynomial(ST, terms)

    if rng.random() < 0.5:
        return GammaSpec.translation_line(poly())
    return GammaSpec.heisenberg(poly(), poly(), poly())


def test_criterion_3_w_pipeline():
    w = w_expansion(GammaSpec.translation_line(P("-s*t")))
    paper_value = set(w.terms) == {(1, 1)} and w.terms[(1, 1)] == (Fraction(2),)
    rng = random.Random(20240817)
    corpus = [_random_gamma(rng) for _ in range(120)]
    relation_ok = all(verify_taylor_relation(spec).passed for spec in corpus)
    both = sum(1 for s in corpus if s.family == "heisenberg")
    ok = paper_value and relation_ok and 20 < both < 100
    _report(
        3,
        ok,
        f"W(x + st) = 2st d/dx; Taylor relation exact on {len(corpus)} random "
        f"curves ({both} Heisenberg)",
    )


def test_criterion_4_moment_bump_construction():
    start = time.perf_counter()
    ok = True
    worst = {"m0": 0.0, "excluded": 0.0, "target": np.inf, "det": 0.0}
    for a1 in (1, 2, 3):
        others = [e for e in range(1, 8) if e != a1]
        for size in range(4):
            excluded = tuple(others[:size])
            mb = moment_bump(1.0, a1, excluded)
            worst["m0"] = max(worst["m0"], abs(mb.moments[0]))
            for e in excluded:
                worst["excluded"] = max(worst["excluded"], abs(mb.moments[e]))
            worst["target"] = min(worst["target"], abs(mb.moments[a1]))
            rel = abs(mb.determinant - mb.determinant_closed_form) / abs(
                mb.determinant_closed_form
            )
            worst["det"] = max(worst["det"], rel)
            ok = ok and abs(mb.moments[0]) < 1e-10
            ok = ok and all(abs(mb.moments[e]) < 1e-9 for e in excluded)
            ok = ok and abs(mb.moments[a1]) > 1e-6
            ok = ok and rel < 1e-8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(
        4,
        ok,
        f"12 bumps: |m0| <= {worst['m0']:.1e}, excluded <= {worst['excluded']:.1e}, "
        f"target >= {worst['target']:.1e}, det rel err <= {worst['det']:.1e} ({elapsed:.2f} s)",
    )


def test_criterion_5_redcomposition_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(512)
    pyrng = random.Random(512)
    phi = moment_bump(0.5, 1).bump
    atom2 = tensor_bump([phi, phi])
    atom1 = tensor_bump([phi])
    worst_identity = 0.0
    worst_cancel = 0.0
    for _ in range(3):
        m_max = pyrng.randint(1, 5)
        tau = (2.0 ** pyrng.uniform(7, 10) , 2.0 ** pyrng.uniform(7, 10))
        direction = (1.0, -pyrng.choice((0.5, 1.0)))
        seq = regroup_to_dyadic(atom2, tau, direction, m_max)
        source = dyadic_source_sum(atom2, tau, direction, m_max)
        pts = rng.uniform(-0.01, 0.01, size=(10_000, 2))
        hit = float(np.max(np.abs(source(pts))))
        assert hit > 1.0, "samples must land on the kernel support"
        worst_identity = max(
            worst_identity, float(np.max(np.abs(kernel_sum(seq, pts) - source(pts)))) / max(1.0, hit)
        )
    for nu, atom in ((1, atom1), (2, atom2)):
        m_j = tuple(pyrng.randint(1, 4) for _ in range(nu))
        v = tuple(2.0 ** (m + 1) * pyrng.uniform(1.0, 1.999) for m in m_j)
        m_max = pyrng.randint(1, 5)
        atoms = lambda k: atom
        seq = telescope_decompose(atoms, m_j, v, m_max, ExponentScheme.product(nu))
        source = telescope_source_sum(atoms, m_j, v, m_max, ExponentScheme.product(nu))
        pts = rng.uniform(-0.6, 0.6, size=(10_000, nu))
        hit = float(np.max(np.abs(source(pts))))
        assert hit > 1.0, "samples must land on the kernel support"
        worst_identity = max(
            worst_identity, float(np.max(np.abs(kernel_sum(seq, pts) - source(pts)))) / max(1.0, hit)
        )
        report = verify_cancellation(seq, tolerance=1e-9)
        worst_cancel = max(worst_cancel, report.max_abs)
    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-10 and worst_cancel <= 1e-9 and elapsed < 10.0
    _report(
        5,
        ok,
        f"regroup/telescope identities to {worst_identity:.1e} (tol 1e-10), "
        f"telescoped cancellation {worst_cancel:.1e} (tol 1e-9) ({elapsed:.2f} s)",
    )


def test_criterion_6_kitty_exact_growth():
    start = time.perf_counter()
    table = growth_experiment("kitty", list(range(9)))
    errors = [abs(r.ratio - (r.M + 1)) / (r.M + 1) for r in table.rows]
    elapsed = time.perf_counter() - start
    ok = max(errors) <= 1e-12 and elapsed < 30.0
    _report(
        6,
        ok,
        f"ratios equal M+1 for M <= 8 (max rel err {max(errors):.1e}, {elapsed:.1f} s, n=2048)",
    )


def test_criterion_7_know_asymptotic_growth():
    start = time.perf_counter()
    tables = {
        level: growth_experiment("know", list(range(9)), level=level).ratios()
        for level in (10, 15, 20)
    }
    floors_ok = all(r >= 0.8 * (m + 1) for m, r in enumerate(tables[20]))
    # L-convergence study: the mean shortfall from the M+1 ceiling shrinks
    shortfall = {
        level: sum((m + 1) - r for m, r in enumerate(ratios)) / 9
        for level, ratios in tables.items()
    }
    study_ok = shortfall[10] > shortfall[15] > shortfall[20] >= 0.0
    # per-M monotone improvement, up to a 1e-2 wiggle at the saturated values
    monotone_ok = all(
        tables[15][m] >= tables[10][m] - 1e-2 and tables[20][m] >= tables[15][m] - 1e-2
        for m in range(9)
    )
    strict_ok = all(tables[20][m] > tables[10][m] for m in range(4, 9))
    elapsed = time.perf_counter() - start
    ok = floors_ok and study_ok and monotone_ok and strict_ok and elapsed < 300.0
    _report(
        7,
        ok,
        f"L=20 ratios >= 0.8(M+1) (min margin "
        f"{min(r - 0.8 * (m + 1) for m, r in enumerate(tables[20])):.3f}); "
        f"mean shortfall {shortfall[10]:.2f} > {shortfall[15]:.2f} > {shortfall[20]:.2f} "
        f"over L in (10, 15, 20) ({elapsed:.1f} s)",
    )


def test_criterion_8_billy_boundedness():
    start = time.perf_counter()
    table = growth_experiment("billy", list(range(13)))
    ratios = table.ratios()
    elapsed = time.perf_counter() - start
    ok = (
        max(ratios) < 3.0
        and ratios[12] / ratios[6] < 1.2
        and elapsed < 300.0
    )
    _report(
        8,
        ok,
        f"class-kernel ratios for M <= 12 peak at {max(ratios):.3f} (< 3), "
        f"ratio(12)/ratio(6) = {ratios[12] / ratios[6]:.4f} (< 1.2) ({elapsed:.1f} s)",
    )


def test_criterion_9_property_suites():
    rng = random.Random(4096)
    x12 = ("x1", "x2")

    def rand_field() -> PolyVectorField:
        comps = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                terms[(rng.randint(0, 2), rng.randint(0, 2))] = Fraction(rng.randint(-4, 4))
            comps.append(Polynomial(x12, terms))
        return PolyVectorField(tuple(comps))

    bracket_ok = True
    for _ in range(25):
        a, b, c = rand_field(), rand_field(), rand_field()
        bracket_ok = bracket_ok and lie_bracket(a, b) == -lie_bracket(b, a)
        jacobi = (
            lie_bracket(a, lie_bracket(b, c))
            + lie_bracket(b, lie_bracket(c, a))
            + lie_bracket(c, lie_bracket(a, b))
        )
        bracket_ok = bracket_ok and jacobi.is_zero()

    scheme = ExponentScheme.from_rows([["1/2", 1], [2, "1/3"]])
    degree_ok = all(
        degree(tuple(x + y for x, y in zip(alpha, beta)), scheme)
        == tuple(
            u + v for u, v in zip(degree(alpha, scheme), degree(beta, scheme))
        )
        for alpha in ((1, 0), (2, 3), (0, 4))
        for beta in ((0, 1), (5, 2), (3, 3))
    )

    from mpradon.bumps import BumpCombination

    unit = BumpCombination(((1.0, 0.125, 0.5),))  # mass exactly one
    prod1 = ExponentScheme.product(1)
    f = lambda t: float(unit(t[0]))
    lo, hi = unit.support()
    g = scale_function(f, (2.0**5,), prod1)
    mass_plain = integrate_adaptive(unit, lo, hi, tol=1e-13)
    mass_scaled = integrate_adaptive(
        lambda t: np.array([g((ti,)) for ti in np.atleast_1d(t)]),
        lo / 2.0**5,
        hi / 2.0**5,
        tol=1e-13,
    )
    integral_ok = abs(mass_plain - mass_scaled) < 1e-11 and abs(mass_plain - 1.0) < 1e-10

    phi = moment_bump(0.5, 1).bump
    comp_ok = True
    d1, d2 = (2.0, 0.25), (1.5, 3.0)
    prod2 = ExponentScheme.product(2)
    f2 = lambda t: float(phi(t[0]) * phi(t[1]))
    once = scale_function(scale_function(f2, d1, prod2), d2, prod2)
    both = scale_function(f2, (d1[0] * d2[0], d1[1] * d2[1]), prod2)
    pts = np.random.default_rng(5).uniform(0.0, 0.7, size=(300, 2))
    for t in pts:
        comp_ok = comp_ok and abs(once(t) - both(t)) <= 1e-12 * max(1.0, abs(both(t)))

    stability = {}
    for case, level, family in (
        ("kitty", None, dyadic_scales),
        ("billy", None, square_scales),
        ("know", 20, dyadic_scales),
    ):
        p = case_polynomial(case, level)
        norms = [
            operator_norm(build_operator(p, family(6), Grid1D(n=n))).value
            for n in (1024, 2048)
        ]
        stability[case] = abs(norms[1] - norms[0]) / norms[0]
    stability_ok = all(v < 0.02 for v in stability.values())

    ok = bracket_ok and degree_ok and integral_ok and comp_ok and stability_ok
    _report(
        9,
        ok,
        "brackets/degrees/scaling exact; grid refinement 1024->2048 moved norms by "
        + ", ".join(f"{case} {v * 100:.2f}%" for case, v in stability.items())
        + " (< 2%)",
    )
