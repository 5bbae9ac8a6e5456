"""Seeded input generators for the three workloads.

Everything here is a pure function of the seed: the same seed writes the
same files.  The program under test only ever sees the generated files and
command lines, never the seed.

Job counts per stratum are fixed; the seed picks supports, exponents and
coefficients inside each stratum.  That keeps a pass's total work close to
seed-independent, which the run-to-run spread across seeds depends on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output check needs to know."""

    name: str
    kind: str  # stratum label, e.g. "h1", "newton", "regroup", "bump"
    argv: tuple[str, ...]
    expect_exit: int | None = None  # fixed by construction, when it is
    meta: tuple = ()  # (key, value) pairs the output check reads


# -- polynomial text -------------------------------------------------------


def _monomial(alpha: tuple[int, ...], names: tuple[str, ...]) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, alpha) if e]
    return "*".join(parts)


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def poly_text(terms: dict[tuple[int, ...], Fraction], names: tuple[str, ...]) -> str:
    if not terms:
        return "0"
    out = []
    for alpha in sorted(terms, key=lambda a: (sum(a), a)):
        c = terms[alpha]
        out.append(f"{c}*{_monomial(alpha, names)}")
    return " + ".join(out).replace("+ -", "- ")


# -- decide ----------------------------------------------------------------

ST = ("s", "t")

# (degree, monomial density, specs per pass).  Sparse strata mostly give
# unbounded verdicts that exit at the first failing sector; dense strata give
# bounded verdicts that sweep every sector of every nonpure index.
H1_STRATA = (
    (3, 0.3, 4), (3, 0.6, 4), (3, 0.9, 3),
    (4, 0.3, 4), (4, 0.6, 4), (4, 0.9, 1),
    (5, 0.3, 4), (5, 0.6, 2), (5, 0.9, 1),
    (6, 0.3, 4), (6, 0.6, 2),
)
NEWTON_SPECS = 70
NONPRODUCT_SCHEMES = ("1 0 ; 1 1", "2 0 ; 1 1", "1 1/2 ; 0 1")
NONPRODUCT_PER_SCHEME = 2
# pure powers per axis for each nu = 3 spec; the subset enumeration grows
# with their total, so the pattern is fixed and only the exponents are drawn
NU3_PURE = ((2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2)) * 3
NU4_SPECS = 8


def _random_h1_support(rng: random.Random, deg: int, density: float) -> list:
    monomials = [(e, d - e) for d in range(1, deg + 1) for e in range(d + 1)]
    support = [a for a in monomials if rng.random() < density]
    # pin the degree: one monomial of top degree is always present
    top = rng.choice([a for a in monomials if sum(a) == deg])
    return support if top in support else support + [top]


def h1_templates() -> list[tuple[int, float, list]]:
    """(degree, density, three supports) per H^1 spec.

    The supports are drawn once, from a fixed generator, and are the same for
    every seed: the cost of a verdict is set by its support (closure size,
    sector count, where an unbounded sweep exits), so seed-drawn supports would
    make the work per pass differ by seed.  The seed picks the coefficients
    and the s<->t and X<->Y symmetries instead.
    """
    rng = random.Random("h1-templates-v1")
    out = []
    for deg, density, count in H1_STRATA:
        for _ in range(count):
            out.append((deg, density, [_random_h1_support(rng, deg, density) for _ in range(3)]))
    return out


def _h1_spec(rng: random.Random, supports: list) -> str:
    if rng.random() < 0.5:
        supports = [[(f, e) for e, f in s] for s in supports]
    if rng.random() < 0.5:
        supports = [supports[1], supports[0], supports[2]]
    polys = [poly_text({a: _coefficient(rng) for a in s}, ST) for s in supports]
    return (
        "[problem]\nfamily = heisenberg\n"
        f"p1 = {polys[0]}\np2 = {polys[1]}\np3 = {polys[2]}\n"
    )


def _newton_spec(rng) -> str:
    a, b = rng.randint(1, 6), rng.randint(1, 6)
    terms = {(a, 0): _coefficient(rng), (0, b): _coefficient(rng)}
    for _ in range(rng.randint(1, 4)):
        terms[(rng.randint(1, 6), rng.randint(1, 6))] = _coefficient(rng)
    return f"[problem]\nfamily = translation_line\np = {poly_text(terms, ST)}\n"


def _nonproduct_spec(rng, rows: str) -> str:
    terms = {(rng.randint(1, 4), 0): _coefficient(rng), (0, rng.randint(1, 4)): _coefficient(rng)}
    for _ in range(3):
        terms[(rng.randint(1, 4), rng.randint(1, 4))] = _coefficient(rng)
    return (
        f"[problem]\nfamily = translation_line\np = {poly_text(terms, ST)}\n"
        f"[scheme]\ne = {rows}\n"
    )


def _scalar_spec(rng, pure_per_axis: tuple[int, ...], mixed: int, bounded: bool) -> str:
    """A nu-parameter product-scheme line curve whose outcome is known.

    With a_mu the least pure power on axis mu, a mixed exponent alpha is
    controlled iff sum alpha_mu / a_mu >= 1.  Unbounded specs carry exactly
    one mixed exponent below that plane.
    """
    nu = len(pure_per_axis)
    names = tuple(f"s{i + 1}" for i in range(nu))
    terms: dict[tuple[int, ...], Fraction] = {}
    least = []
    for mu, count in enumerate(pure_per_axis):
        powers = rng.sample(range(3, 9), count)
        least.append(min(powers))
        for e in powers:
            alpha = tuple(e if k == mu else 0 for k in range(nu))
            terms[alpha] = _coefficient(rng)
    n_pure = len(terms)
    while len(terms) < n_pure + mixed:
        alpha = tuple(rng.randint(0, 5) for _ in range(nu))
        if sum(v > 0 for v in alpha) < 2 or alpha in terms:
            continue
        if sum(Fraction(v, a) for v, a in zip(alpha, least)) >= 1:
            terms[alpha] = _coefficient(rng)
    if not bounded:
        while True:
            alpha = tuple(rng.randint(0, 2) for _ in range(nu))
            if sum(v > 0 for v in alpha) >= 2 and alpha not in terms and sum(
                Fraction(v, a) for v, a in zip(alpha, least)
            ) < 1:
                terms[alpha] = _coefficient(rng)
                break
    rows = " ; ".join(" ".join("1" if j == i else "0" for j in range(nu)) for i in range(nu))
    return (
        f"[problem]\nfamily = translation_line\nvariables = {' '.join(names)}\n"
        f"p = {poly_text(terms, names)}\n[scheme]\ne = {rows}\n"
    )


def decide_specs(seed: int) -> list[tuple[str, str, str, int | None]]:
    """(file name, stratum, spec text, expected exit code or None)."""
    rng = random.Random(f"decide-{seed}")
    out = []
    for i, (deg, density, supports) in enumerate(h1_templates()):
        out.append((f"h1_{i}_d{deg}_r{int(density * 10)}.spec", "h1", _h1_spec(rng, supports), None))
    for i in range(NEWTON_SPECS):
        out.append((f"newton_{i}.spec", "newton", _newton_spec(rng), None))
    for j, rows in enumerate(NONPRODUCT_SCHEMES):
        for i in range(NONPRODUCT_PER_SCHEME):
            out.append((f"nonproduct_{j}_{i}.spec", "nonproduct", _nonproduct_spec(rng, rows), None))
    for i, pure in enumerate(NU3_PURE):
        bounded = i % 2 == 0
        out.append((f"nu3_{i}.spec", "nu3", _scalar_spec(rng, pure, 4, bounded), 0 if bounded else 2))
    for i in range(NU4_SPECS):
        bounded = i % 2 == 0
        out.append((f"nu4_{i}.spec", "nu4", _scalar_spec(rng, (1, 1, 1, 1), 4, bounded), 0 if bounded else 2))
    return out


# -- norm-growth -----------------------------------------------------------

# (case, L, M list, grid n): the acceptance experiments of criteria 6-8 at
# n = 2048, plus kitty on the 4x finer grid.  The seed selects nothing here.
NORM_TABLES = (
    ("kitty", None, "0..8", 2048),
    ("know", 10, "0..8", 2048),
    ("know", 15, "0..8", 2048),
    ("know", 20, "0..8", 2048),
    ("billy", None, "0..12", 2048),
    ("kitty", None, "0..8", 8192),
)


def norm_jobs() -> list[Job]:
    jobs = []
    for case, level, m_range, n in NORM_TABLES:
        argv = ["norm-growth", "--case", case, "--M", m_range, "--grid-n", str(n), "--format", "json"]
        if level is not None:
            argv += ["--L", str(level)]
        name = f"{case}{'' if level is None else f'_L{level}'}_n{n}"
        jobs.append(Job(name, case, tuple(argv), 0, (("case", case), ("L", level), ("n", n))))
    return jobs


# -- kernels ---------------------------------------------------------------

REGROUP_M = (4, 8, 12, 16)
REGROUP_SLOPES = (0.5, 1.0)
REGROUP_REPEATS = 3
# (m_j, M) per telescoped file; cost grows with the entry count, so the
# pattern is fixed and the seed draws the scale vector inside its bracket
TELESCOPE_1D = (((1,), 2), ((2,), 4), ((3,), 6), ((4,), 8)) * 2
TELESCOPE_2D = (((1, 1), 2), ((2, 1), 4), ((1, 2), 6), ((2, 3), 4), ((3, 2), 3), ((4, 4), 4), ((1, 3), 8), ((2, 2), 5))
NONCANCELLING = 6
BUMP_SUPPORTS = (0.5, 0.75, 1.0, 1.5, 2.0)
BUMP_REPEATS = 2
BOUNDS_ARGS = ("--M", "8", "--alphas", "0,0;1,0")


def _bracketed(rng: random.Random, m_j: tuple[int, ...]) -> tuple[float, ...]:
    return tuple(2.0 ** (m + 1) * rng.uniform(1.0, 1.999) for m in m_j)


def kernel_sequences(seed: int):
    """Yield (file name, stratum, build thunk, expected exit, extra argv).

    Builds are thunks so the caller can time them as kernels.build work.
    Non-cancelling files use a positive-mass atom, so every slice integral
    of an entry with k_mu != 0 is of order one and the check must fail.
    """
    from mpradon.bumps import BumpCombination, moment_bump, tensor_bump
    from mpradon.dilations import ExponentScheme
    from mpradon.kernels import regroup_to_dyadic, telescope_decompose

    rng = random.Random(f"kernels-{seed}")
    phi = moment_bump(0.5, 1).bump
    mass = BumpCombination(((1.0, 0.0, 0.5),))
    atom1, atom2, massive = tensor_bump([phi]), tensor_bump([phi, phi]), tensor_bump([mass, phi])
    product1, product2 = ExponentScheme.product(1), ExponentScheme.product(2)

    def regroup(atom, m_max, slope):
        tau = (2.0 ** rng.uniform(7, 10), 2.0 ** (m_max * slope + rng.uniform(1, 3)))
        return lambda: regroup_to_dyadic(atom, tau, (1.0, -slope), m_max)

    def telescope(atom, m_j, m_max, scheme):
        v = _bracketed(rng, m_j)
        return lambda: telescope_decompose(lambda k: atom, m_j, v, m_max, scheme)

    for m_max in REGROUP_M:
        for slope in REGROUP_SLOPES:
            for rep in range(REGROUP_REPEATS):
                extra = BOUNDS_ARGS if rep == 0 else ()
                yield (f"regroup_M{m_max}_s{slope}_{rep}.kernel", "regroup", regroup(atom2, m_max, slope), 0, extra)
    for i, (m_j, m_max) in enumerate(TELESCOPE_1D):
        yield (f"tele1_{i}_m{m_j[0]}_M{m_max}.kernel", "telescope1", telescope(atom1, m_j, m_max, product1), 0, ())
    for i, (m_j, m_max) in enumerate(TELESCOPE_2D):
        extra = BOUNDS_ARGS if i % 2 == 0 else ()
        name = f"tele2_{i}_m{m_j[0]}{m_j[1]}_M{m_max}.kernel"
        yield (name, "telescope2", telescope(atom2, m_j, m_max, product2), 0, extra)
    for i in range(NONCANCELLING):
        if i % 2 == 0:
            thunk = regroup(massive, REGROUP_M[i // 2], 1.0)
        else:
            thunk = telescope(massive, (1 + i // 2, 1), 2, product2)
        yield (f"noncancel_{i}.kernel", "noncancelling", thunk, 2, ())


def bump_jobs(seed: int) -> list[Job]:
    """The acceptance criterion 4 grid for a1 = 1..7: exclusions are the
    first 0..3 other exponents of 1..7.  The seed draws the support length."""
    rng = random.Random(f"bumps-{seed}")
    jobs = []
    for a1 in range(1, 8):
        others = [e for e in range(1, 8) if e != a1]
        for size in range(4):
            excluded = others[:size]
            for rep in range(BUMP_REPEATS):
                a = rng.choice(BUMP_SUPPORTS)
                argv = ("bump", "--a", repr(a), "--a1", str(a1), "--excluded", ",".join(map(str, excluded)), "--format", "json")
                meta = (("a1", a1), ("excluded", tuple(excluded)))
                jobs.append(Job(f"bump_a{a}_t{a1}_x{''.join(map(str, excluded))}_{rep}", "bump", argv, 0, meta))
    return jobs
