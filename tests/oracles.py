"""Independent evaluators the tests check the package against.

None of these is on a path the package ships: each recomputes something the
package computes another way (a bracket from coordinates rather than from
structure constants, a kernel sum term by term rather than in dyadic normal
form, a moment by quadrature rather than in closed form), so agreement
between the two is evidence for both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm, prod
from typing import Callable, Mapping, Sequence

import numpy as np

from mpradon.bumps import MAX_MOMENT, BumpCombination, TensorBump
from mpradon.criteria import (
    ControlCertificate,
    PowerSets,
    SectorCertificate,
    Witness,
    _cleared,
    _independent_prefix,
    _solve_on_pivots,
    sector_normals,
)
from mpradon.dilations import (
    DimensionMismatch,
    ExponentScheme,
    MultiIndex,
    degree,
    dilation_factors,
    is_pure,
)
from mpradon.kernels import DyadicKernelSeq, KernelEntry, ScaledAtom, _dyadic_scale
from mpradon.quadrature import integrate_adaptive, tensor_grid
from mpradon.symbolic import (
    FAMILIES,
    HEISENBERG,
    HEISENBERG_BASIS,
    LINE_BASIS,
    GammaSpec,
    Polynomial,
    WExpansion,
    w_expansion,
    xhat_expansion,
)
from mpradon.symbolic.fields import heisenberg_bracket
from mpradon.symbolic.gamma import canonical_index_key

# -- polynomials and vector fields in coordinates --------------------------------


@dataclass(frozen=True)
class PolyVectorField:
    """sum_i components[i] * d/dx_i with polynomial components."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("a vector field needs at least one component")
        vars0 = comps[0].variables
        if any(c.variables != vars0 for c in comps):
            raise ValueError("all components must share the same variables")
        if len(comps) != len(vars0):
            raise ValueError(
                f"{len(comps)} components for {len(vars0)} coordinate variables"
            )

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.components[0].variables

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def apply(self, f: Polynomial) -> Polynomial:
        """Directional derivative: sum_i comp_i * df/dx_i."""
        if f.variables != self.variables:
            raise ValueError("function and field live in different variables")
        out = Polynomial.zero(f.variables)
        for i, comp in enumerate(self.components):
            out = out + comp * f.partial(i)
        return out

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "PolyVectorField":
        return PolyVectorField(tuple(-c for c in self.components))

    def scaled(self, factor) -> "PolyVectorField":
        return PolyVectorField(tuple(c * Fraction(factor) for c in self.components))

    def __str__(self) -> str:
        parts = [
            f"({c}) d/d{name}"
            for c, name in zip(self.components, self.variables)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"

    @classmethod
    def zero(cls, variables) -> "PolyVectorField":
        return cls(tuple(Polynomial.zero(variables) for _ in variables))

    @classmethod
    def coordinate(cls, variables, i: int, coeff: Polynomial | None = None) -> "PolyVectorField":
        """(coeff) * d/dx_i; coeff defaults to 1."""
        variables = tuple(variables)
        comps = [Polynomial.zero(variables) for _ in variables]
        comps[i] = coeff if coeff is not None else Polynomial.constant(variables, 1)
        return cls(tuple(comps))


def lie_bracket(a: PolyVectorField, b: PolyVectorField) -> PolyVectorField:
    """[A, B] with components A(B_i) - B(A_i), exact."""
    if a.dimension != b.dimension or a.variables != b.variables:
        raise ValueError("bracket requires fields of equal dimension and variables")
    return PolyVectorField(
        tuple(a.apply(bc) - b.apply(ac) for ac, bc in zip(a.components, b.components))
    )


def as_poly_field(coords: Sequence[Fraction], basis: tuple[str, ...]) -> PolyVectorField:
    """Coordinate realization of a constant field, for cross-checks against the generic bracket."""
    if basis == LINE_BASIS:
        variables = ("x",)
        return PolyVectorField((Polynomial.constant(variables, coords[0]),))
    if basis == HEISENBERG_BASIS:
        variables = ("x", "y", "t")
        a, b, c = coords
        x = Polynomial.variable(variables, "x")
        y = Polynomial.variable(variables, "y")
        const = lambda value: Polynomial.constant(variables, value)
        # X = d/dx - (y/2) d/dt, Y = d/dy + (x/2) d/dt, T = d/dt
        return PolyVectorField(
            (
                const(a),
                const(b),
                const(c) - y * Fraction(a, 2) + x * Fraction(b, 2),
            )
        )
    raise ValueError(f"no coordinate realization for basis {basis}")


def substitute_scaled(p: Polynomial, factors: Sequence) -> Polynomial:
    """p(c_1 t_1, ..., c_n t_n) for exact rational factors c_i."""
    factors = [Fraction(f) for f in factors]
    if len(factors) != p.nvars:
        raise ValueError("one scale factor per variable required")
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in p.terms.items():
        scale = Fraction(1)
        for f, a in zip(factors, e):
            scale *= f**a
        if scale != 0:
            out[e] = c * scale
    return Polynomial(p.variables, out)


# -- dilations -------------------------------------------------------------------


def dilate_point(
    delta: Sequence[float], t: Sequence[float], scheme: ExponentScheme
) -> tuple[float, ...]:
    """delta t = (delta^{e_1} t_1, ..., delta^{e_N} t_N)."""
    if len(t) != scheme.n_t:
        raise DimensionMismatch(f"point has {len(t)} components, scheme expects {scheme.n_t}")
    factors = dilation_factors(delta, scheme)
    return tuple(f * float(ti) for f, ti in zip(factors, t))


def scale_function(
    f: Callable[[Sequence[float]], float],
    delta: Sequence[float],
    scheme: ExponentScheme,
) -> Callable[[Sequence[float]], float]:
    """f^(delta)(t) = delta^{e_1+...+e_N} f(delta t); preserves the integral.

    Requires strictly positive delta so the change of variables is invertible.
    """
    if any(d <= 0 for d in delta):
        raise ValueError("function dilation needs strictly positive delta")
    factors = dilation_factors(delta, scheme)
    jac = prod(factors)

    def scaled(t: Sequence[float]) -> float:
        return jac * f(tuple(fi * float(ti) for fi, ti in zip(factors, t)))

    return scaled


# -- moments by quadrature -------------------------------------------------------


def moment(f, m: int, tol: float = 1e-12, order: int = 24) -> float:
    """int t^m f(t) dt over the support, by adaptive Gauss-Legendre."""
    if not 0 <= m <= MAX_MOMENT:
        raise ValueError(f"moment order must be in [0, {MAX_MOMENT}]")
    if isinstance(f, BumpCombination):
        lo, hi = f.support()
        hi = max(hi, lo + 1e-12)
        return integrate_adaptive(lambda t: t**m * f(t), lo, hi, tol=tol, order=order)
    # a bare callable: assume support within (0, 1) like the base mollifier
    return integrate_adaptive(lambda t: t**m * np.asarray(f(t), dtype=float), 0.0, 1.0, tol=tol, order=order)


def moment_by_grid(tb: TensorBump, alpha: Sequence[int], order: int = 24, panels: int = 4) -> float:
    """Direct tensor-quadrature moment, the independent cross-check.

    The grid is ``quadrature_rule``'s, with panel edges at every atom
    boundary, so the narrowest atoms are resolved at their own width.
    Its float floor is about eps times the product over the factors of
    sum_j |c_j|, i.e. eps * (sum_j |c_j|)^2 for two equal factors: the
    atom coefficients can be large and cancel, their rounding does not.
    """
    points, weights = tb.quadrature_rule(order, panels)
    mono = np.ones(points.shape[0])
    for i, m in enumerate(alpha):
        mono *= points[:, i] ** m
    return float(np.dot(weights, mono * tb(points)))


# -- kernels ---------------------------------------------------------------------


def entry_values(entry: KernelEntry, points, orders: Sequence[int] | None = None) -> np.ndarray:
    """d^orders of the entry (its values when orders is None) at the points.

    Each atom is evaluated at every point as a whole tensor bump, with the
    chain-rule factor prod_i (delta^{e_i})^{orders_i}; the package's
    ``sample_product_kernel_bounds`` evaluates each 1-D factor once per
    distinct coordinate instead.
    """
    n_t = entry.scheme.n_t
    orders = (0,) * n_t if orders is None else orders
    if len(orders) != n_t:
        raise ValueError(f"orders must have {n_t} entries, got {len(orders)}")
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1])
    for sa, (factors, jac) in zip(entry.atoms, entry.dilations):
        chain = float(np.prod(factors ** np.array(orders, dtype=float)))
        out += sa.coef * jac * chain * sa.atom.derivative_values(pts * factors, orders)
    return out


def kernel_sum(seq: DyadicKernelSeq, points) -> np.ndarray:
    """The represented sum  sum_k entry_k^{(2^k)}  at the points."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1])
    for k in seq.indices():
        out += entry_values(seq.entries[k].scaled(_dyadic_scale(k)), pts)
    return out


def cm_norm_sampled(entry: KernelEntry, m: int, per_axis: int = 160) -> float:
    """Sampled C^m norm: sup over derivatives of total order <= m.

    The kernel class asks for boundedness in every C^m; this artifact
    verifies m <= 2 by sampling and leaves higher m unchecked.
    """
    pts = tensor_grid([np.linspace(lo, hi, per_axis) for lo, hi in entry.support_box()])
    if not pts.size:
        return 0.0
    worst = float(np.max(np.abs(entry_values(entry, pts))))
    for orders in iter_product(*[range(m + 1)] * entry.scheme.n_t):
        if 0 < sum(orders) <= m:
            worst = max(worst, float(np.max(np.abs(entry_values(entry, pts, orders)))))
    return worst


def dyadic_source_sum(
    atom: TensorBump,
    tilde_tau: Sequence[float],
    direction: Sequence[float],
    m_max: int,
    scheme: ExponentScheme | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Direct evaluator of sum_{k<=M} atom^{(tau 2^{k n})} (the regroup oracle)."""
    scheme = scheme or ExponentScheme.product(atom.dimension)
    base = KernelEntry(scheme, [ScaledAtom(1.0, atom, tuple(1.0 for _ in tilde_tau))])

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for k in range(m_max + 1):
            delta = tuple(
                t * 2.0 ** (k * n) for t, n in zip(tilde_tau, direction)
            )
            out += entry_values(base.scaled(delta), pts)
        return out

    return evaluate


def telescope_source_sum(
    atoms: Mapping[tuple[int, ...], TensorBump] | Callable[[tuple[int, ...]], TensorBump],
    m_j: Sequence[int],
    scale_vector: Sequence[float],
    m_max: int,
    scheme: ExponentScheme | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Direct evaluator of the telescoped sum (the oracle side of the identity)."""
    m_j = tuple(int(x) for x in m_j)
    v = tuple(float(x) for x in scale_vector)
    nu = len(m_j)
    get_atom = atoms.__getitem__ if isinstance(atoms, Mapping) else atoms
    probe = get_atom(tuple(0 for _ in range(nu)))
    scheme = scheme or ExponentScheme.product(probe.dimension)

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for offset in iter_product(*[range(m_max + 1)] * nu):
            if sum(offset) > m_max:
                continue
            delta = tuple(2.0 ** offset[mu] * v[mu] for mu in range(nu))
            entry = KernelEntry(scheme, [ScaledAtom(1.0, get_atom(tuple(offset)), delta)])
            out += entry_values(entry, pts)
        return out

    return evaluate


def scaled_sequence(seq: DyadicKernelSeq, delta: Sequence[float]) -> DyadicKernelSeq:
    """Every entry of seq composed with the dilation delta."""
    return DyadicKernelSeq(
        seq.scheme,
        seq.support_radius,
        {k: e.scaled(delta) for k, e in seq.entries.items()},
    )


# -- reports ---------------------------------------------------------------------


def gamma_from_input_echo(echo: dict) -> GammaSpec:
    """Rebuild the GammaSpec from a report's input block (round-trip check)."""
    scheme = ExponentScheme.from_rows([row.split() for row in echo["scheme_rows"]])
    variables = tuple(echo["variables"])
    keys = FAMILIES[echo["family"]].keys
    return GammaSpec(echo["family"], scheme, tuple(Polynomial.parse(echo[k], variables) for k in keys))


# -- the polynomial text grammar, parsed token by token --------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*/^]))")


def _tokenize(text: str) -> list[str]:
    """The tokens, in one scan; text that no token starts at is an error."""
    tokens, pos = [], 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:  # the skipped text holds a character no token takes
            break
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"unexpected character at position {pos}: {text[pos:]!r}")
    return tokens


def parse_polynomial(text: str, variables: tuple[str, ...]) -> Polynomial:
    """``Polynomial.parse`` by a scan that checks each match's start, then one
    pass over the tokens; like terms are summed with ``+`` as they come."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    terms: dict[tuple[int, ...], Fraction] = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        num, den = sign, 1
        exps = [0] * len(variables)
        expect_factor = True
        while i < len(tokens):
            tok = tokens[i]
            if tok == "*":
                if expect_factor:
                    raise ValueError("misplaced '*'")
                expect_factor = True
                i += 1
                continue
            if tok in "+-":
                break
            if not expect_factor:
                raise ValueError(f"missing '*' before {tok!r}")
            if tok.isdigit():
                num *= int(tok)
                i += 1
                if i < len(tokens) and tokens[i] == "/":
                    if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                        raise ValueError("expected denominator after '/'")
                    d = int(tokens[i + 1])
                    if d == 0:
                        raise ValueError("zero denominator")
                    den *= d
                    i += 2
            else:
                if tok not in variables:
                    if tok in ("/", "^"):
                        raise ValueError(f"misplaced {tok!r}")
                    raise ValueError(f"unknown variable {tok!r}; expected one of {list(variables)}")
                power = 1
                i += 1
                if i < len(tokens) and tokens[i] == "^":
                    if i + 1 >= len(tokens) or not tokens[i + 1].isdigit():
                        raise ValueError("expected integer exponent after '^'")
                    power = int(tokens[i + 1])
                    i += 2
                exps[variables.index(tok)] += power
            expect_factor = False
        if expect_factor:
            raise ValueError("dangling operator at end of term")
        exps = tuple(exps)
        total = terms.get(exps, 0) + Fraction(num, den)
        if total:
            terms[exps] = total
        else:
            terms.pop(exps, None)
    return Polynomial(variables, terms)


# -- curve expansions and sector normals ------------------------------------------


def scalar_polynomial_expansion(
    p: Polynomial,
    scheme: ExponentScheme | None = None,
    basis: tuple[str, ...] = LINE_BASIS,
    direction: tuple[Fraction, ...] | None = None,
) -> WExpansion:
    """Expansion p(t) * v for a fixed constant field v (default d/dx)."""
    scheme = scheme or ExponentScheme.product(p.nvars)
    direction = direction or tuple(
        Fraction(1) if i == 0 else Fraction(0) for i in range(len(basis))
    )
    terms = {a: tuple(c * v for v in direction) for a, c in p.terms.items() if sum(a) > 0}
    return WExpansion(scheme, basis, terms)


def w_expansion_by_polynomials(spec: GammaSpec) -> WExpansion:
    """W from ``Polynomial`` arithmetic, through the validating ``WExpansion``.

    The scaling derivatives of the exponential-form coordinates q_i, and on
    H^1 the step-2 term on T as polynomial products:
    Pdot_3 - 1/2 (P_1 Pdot_2 - P_2 Pdot_1).
    """
    family = FAMILIES[spec.family]
    q = [q * family.sign for q in spec.polynomials]
    w = [c.scaling_derivative() for c in q]
    if spec.family == HEISENBERG:
        w[2] = w[2] - heisenberg_bracket(q, w) * Fraction(1, 2)
    terms: dict[MultiIndex, list[Fraction]] = {}
    for i, p in enumerate(w):
        for alpha, c in p.terms.items():
            terms.setdefault(alpha, [Fraction(0)] * len(family.basis))[i] = c
    return WExpansion(spec.scheme, family.basis, terms)


@dataclass(frozen=True)
class TaylorRelationReport:
    passed: bool
    residuals: Mapping[MultiIndex, PolyVectorField]
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def verify_taylor_relation(spec: GammaSpec) -> TaylorRelationReport:
    """Check X_alpha = |alpha| Xhat_alpha + V_alpha exactly, for every alpha.

    Every field is realized in coordinates (``as_poly_field``) and V_alpha is
    built from ``lie_bracket`` of those realizations, so the check does not
    use the package's structure constants.
    """
    w = w_expansion(spec)
    xhat = xhat_expansion(spec)
    realize = lambda coords: as_poly_field(coords, w.basis)
    zero = realize((0,) * len(w.basis))
    hats = {alpha: realize(v) for alpha, v in xhat.terms.items()}
    # V_alpha needs every split alpha = beta + gamma with both Xhat's present.
    corrections: dict[MultiIndex, PolyVectorField] = {}
    for beta, b in hats.items():
        for gamma, g in hats.items():
            alpha = tuple(x + y for x, y in zip(beta, gamma))
            br = lie_bracket(b, g)
            if not br.is_zero():
                corrections[alpha] = corrections.get(alpha, zero) - br.scaled(Fraction(sum(gamma), 2))
    residuals: dict[MultiIndex, PolyVectorField] = {}
    for alpha in sorted(set(w.terms) | set(hats) | set(corrections), key=canonical_index_key):
        lhs = realize(w.terms[alpha]) if alpha in w.terms else zero
        rhs = hats.get(alpha, zero).scaled(sum(alpha)) + corrections.get(alpha, zero)
        res = lhs - rhs
        if not res.is_zero():
            residuals[alpha] = res
    passed = not residuals
    detail = "exact match" if passed else f"{len(residuals)} residual term(s)"
    return TaylorRelationReport(passed, residuals, detail)


def primitive(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a nonnegative rational vector to coprime integer entries."""
    fracs = [Fraction(x) for x in v]
    mult = 1
    for f in fracs:
        mult = mult * f.denominator // gcd(mult, f.denominator)
    ints = [int(f * mult) for f in fracs]
    g = 0
    for n in ints:
        g = gcd(g, n)
    return tuple(Fraction(n // g) for n in ints) if g else tuple(fracs)


# -- the supporting-line test one sector at a time -------------------------------


def per_sector_condition(
    alpha0: MultiIndex, target: tuple[Fraction, ...], power_sets: PowerSets
) -> tuple[bool, ControlCertificate | Witness]:
    """``criteria.supporting_line_condition`` without the sweep's carry-over.

    Every sector is tested from scratch: a full membership scan of the
    closure against the sector normal, the independent prefix of the
    members, and the Cramer solve on it.  The sweep must return an equal
    certificate or witness.
    """
    d0 = degree(alpha0, power_sets.scheme)
    assert not is_pure(d0) and any(target) and len(d0) == 2
    closure = power_sets.closure
    view = power_sets.cleared
    degrees, vectors, scales = view.degrees, view.vectors, view.vector_scales
    x0, y0 = _cleared(d0, view.scale)
    goal_scale = lcm(*(c.denominator for c in target))
    goal = _cleared(target, goal_scale)
    sectors = []
    for normal in sector_normals([(x - x0, y - y0) for x, y in degrees]):
        b1, b2 = normal[0].numerator, normal[1].numerator
        bound = b1 * x0 + b2 * y0
        members = [j for j, (x, y) in enumerate(degrees) if b1 * x + b2 * y <= bound]
        kept, pivots = _independent_prefix(((j, vectors[j]) for j in members), len(goal))
        combo = _solve_on_pivots(
            [vectors[j] for j in kept], [scales[j] for j in kept], pivots, goal, goal_scale
        )
        if combo is None:
            h_pi = [closure[j].label for j in members]
            return False, Witness(
                alpha0,
                d0,
                normal,
                f"Xhat_{alpha0} is outside span(H_pi) for the line with normal ({', '.join(map(str, normal))}); "
                f"H_pi = {h_pi}",
            )
        labels = tuple(closure[kept[j]].label for j in combo)
        sectors.append(SectorCertificate(normal, labels, tuple(combo.values())))
    return True, ControlCertificate(alpha0, d0, tuple(sectors))
