"""Independent evaluators the tests check the package against.

None of these is on a path the package ships: each recomputes something the
package computes another way (a bracket from coordinates rather than from
structure constants, a kernel sum term by term rather than in dyadic normal
form, a moment by quadrature rather than in closed form), so agreement
between the two is evidence for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, prod
from typing import Callable, Mapping, Sequence

import numpy as np

from mpradon.bumps import MAX_MOMENT, BumpCombination, TensorBump
from mpradon.dilations import DimensionMismatch, ExponentScheme, MultiIndex, dilation_factors
from mpradon.kernels import DyadicKernelSeq, KernelEntry, ScaledAtom
from mpradon.quadrature import integrate_adaptive, tensor_grid
from mpradon.symbolic import (
    FAMILIES,
    HEISENBERG_BASIS,
    LINE_BASIS,
    BasisVector,
    GammaSpec,
    Polynomial,
    WExpansion,
    w_expansion,
    xhat_expansion,
)
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


def as_poly_field(v: BasisVector) -> PolyVectorField:
    """Coordinate realization, for cross-checks against the generic bracket."""
    if v.basis == LINE_BASIS:
        variables = ("x",)
        return PolyVectorField((Polynomial.constant(variables, v.coords[0]),))
    if v.basis == HEISENBERG_BASIS:
        variables = ("x", "y", "t")
        a, b, c = v.coords
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
    raise ValueError(f"no coordinate realization for basis {v.basis}")


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


def cm_norm_sampled(entry: KernelEntry, m: int, per_axis: int = 160) -> float:
    """Sampled C^m norm: sup over derivatives of total order <= m.

    The kernel class asks for boundedness in every C^m; this artifact
    verifies m <= 2 by sampling and leaves higher m unchecked.
    """
    pts = tensor_grid([np.linspace(lo, hi, per_axis) for lo, hi in entry.support_box()])
    if not pts.size:
        return 0.0
    worst = float(np.max(np.abs(entry(pts))))
    for orders in iter_product(*[range(m + 1)] * entry.scheme.n_t):
        if 0 < sum(orders) <= m:
            worst = max(worst, float(np.max(np.abs(entry.derivative_values(pts, orders)))))
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
            out += base.scaled(delta)(pts)
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
            out += entry(pts)
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
    v = BasisVector(direction, basis)
    return WExpansion(scheme, basis, {a: v.scaled(c) for a, c in p.terms.items() if sum(a) > 0})


@dataclass(frozen=True)
class TaylorRelationReport:
    passed: bool
    residuals: Mapping[MultiIndex, BasisVector]
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def verify_taylor_relation(spec: GammaSpec) -> TaylorRelationReport:
    """Check X_alpha = |alpha| Xhat_alpha + V_alpha exactly, for every alpha."""
    w = w_expansion(spec)
    xhat = xhat_expansion(spec)
    basis = w.basis
    zero = BasisVector(tuple(Fraction(0) for _ in basis), basis)
    residuals: dict[MultiIndex, BasisVector] = {}
    support = set(w.terms) | set(xhat.terms)
    # V_alpha needs every split alpha = beta + gamma with both Xhat's present.
    hat_support = list(xhat.terms)
    corrections: dict[MultiIndex, BasisVector] = {}
    for beta in hat_support:
        for gamma in hat_support:
            alpha = tuple(b + g for b, g in zip(beta, gamma))
            br = xhat.terms[beta].bracket(xhat.terms[gamma])
            if br.is_zero():
                continue
            v = corrections.get(alpha, zero) - br.scaled(Fraction(sum(gamma), 2))
            corrections[alpha] = v
    support |= {a for a, v in corrections.items() if not v.is_zero()}
    for alpha in sorted(support, key=canonical_index_key):
        lhs = w.terms.get(alpha, zero)
        rhs = xhat.terms.get(alpha, zero).scaled(sum(alpha)) + corrections.get(alpha, zero)
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
