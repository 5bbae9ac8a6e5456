"""Smooth bumps with prescribed moments.

Everything is built from one base mollifier

    psi(t) = Z * exp(-1 / (t (1 - t)))  on (0, 1),  0 elsewhere,

normalized to unit mass, through its translates/dilates
psi_{x,r}(t) = psi((t - x)/r) / r.  A ``BumpCombination`` is a finite signed
sum of such atoms; ``moment_bump`` solves a scaled-Vandermonde system to
prescribe: total mass zero, one nonvanishing moment, finitely many further
vanishing moments.

Moments of the base mollifier are transcendental, so the system is solved
in floating point (with one extended-precision refinement step); the
structural determinant identity

    det = y_0 y_1 ... y_k * prod_{l < l'} (c^{a_{l'}} - c^{a_l})

is exposed for verification.  Atom geometry uses the fixed ratio c = 1/2,
which keeps the Vandermonde nodes well separated for exponents up to ~12.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, fsum, isfinite
from typing import Sequence

import numpy as np

from .quadrature import composite_nodes, integrate_adaptive, tensor_rule
from .symbolic.poly import Polynomial

GEOMETRIC_RATIO = 0.5
MAX_MOMENT = 64
MAX_CONSTRAINTS = 12


def _raw_mollifier(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    u = t[inside]
    with np.errstate(over="ignore"):
        out[inside] = np.exp(-1.0 / (u * (1.0 - u)))
    return out


@lru_cache(maxsize=1)
def mollifier_mass() -> float:
    return integrate_adaptive(_raw_mollifier, 0.0, 1.0, tol=1e-15)


def base_mollifier(t) -> np.ndarray:
    """The unit-mass C_c^inf mollifier supported on (0, 1)."""
    return _raw_mollifier(np.asarray(t, dtype=float)) / mollifier_mass()


@lru_cache(maxsize=4)
def _derivative_rational(order: int) -> tuple[Polynomial, int]:
    """psi^(m) = psi * N_m / (u - u^2)^(2m); returns (N_m, 2m), exact."""
    var = ("u",)
    u = Polynomial.variable(var, "u")
    den = u - u * u  # D = u - u^2; h = -1/D; h' = D'/D^2
    dden = den.partial(0)
    num, power = Polynomial.constant(var, 1), 0
    for _ in range(order):
        # d/du (N / D^j) + (N / D^j) * D'/D^2  ==  ((N' D - j N D') D + N D') / D^(j+2)
        num = (num.partial(0) * den - num * dden * power) * den + num * dden
        power += 2
    return num, power


@lru_cache(maxsize=8)
def _derivative_coeffs(order: int) -> np.ndarray:
    num, _ = _derivative_rational(order)
    deg = num.total_degree()
    coeffs = np.zeros(deg + 1)
    for (e,), c in num.terms.items():
        coeffs[e] = float(c)
    return coeffs


def mollifier_derivative(t, order: int) -> np.ndarray:
    """Closed-form psi^(order); exactly zero off (0, 1), clamped at the edges."""
    if order < 0:
        raise ValueError(f"derivative order must be nonnegative, got {order}")
    if order == 0:
        return base_mollifier(t)
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    u = t[inside]
    den = u - u * u
    _, power = _derivative_rational(order)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = base_mollifier(u) * np.polyval(_derivative_coeffs(order)[::-1], u)
        vals = vals / den**power
    out[inside] = np.where(np.isfinite(vals), vals, 0.0)
    return out


@lru_cache(maxsize=None)
def base_moment(m: int) -> float:
    """b_m = int t^m psi(t) dt, by adaptive quadrature, cached."""
    if m < 0 or m > MAX_MOMENT:
        raise ValueError(f"moment order must be in [0, {MAX_MOMENT}]")
    if m == 0:
        return 1.0
    return integrate_adaptive(lambda t: t**m * base_mollifier(t), 0.0, 1.0, tol=1e-14)


@dataclass(frozen=True)
class BumpCombination:
    """sum_j c_j psi_{x_j, r_j}: a finite signed combination of mollifier atoms."""

    atoms: tuple[tuple[float, float, float], ...]  # (c_j, x_j, r_j)

    def __post_init__(self):
        atoms = tuple((float(c), float(x), float(r)) for c, x, r in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if any(r <= 0 for _, _, r in atoms):
            raise ValueError("atom radii must be positive")

    @cached_property
    def exact_zero_mass(self) -> bool:
        """True when the stored coefficients sum to exactly 0, so the mass is 0.

        Every atom has unit mass, so the mass is sum_j c_j.  ``fsum`` rounds
        the exact sum once, and a nonzero sum of floats never rounds to 0;
        when a partial sum overflows, the sum is taken in ``Fraction``s.
        """
        coeffs = [c for c, _, _ in self.atoms]
        if not all(map(isfinite, coeffs)):
            return False
        try:
            return fsum(coeffs) == 0.0
        except OverflowError:
            return sum(map(Fraction, coeffs)) == 0

    def __call__(self, t) -> np.ndarray:
        return self.derivative_values(t, 0)

    def derivative_values(self, t, order: int) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c, x, r in self.atoms:
            out += (c / r ** (order + 1)) * mollifier_derivative((t - x) / r, order)
        return out

    def support(self) -> tuple[float, float]:
        return self._support

    @cached_property
    def _support(self) -> tuple[float, float]:
        los = [x for _, x, _ in self.atoms]
        his = [x + r for _, x, r in self.atoms]
        return (min(los), max(his)) if self.atoms else (0.0, 0.0)

    def quadrature_rule(self, order: int, panels: int = 2) -> tuple[np.ndarray, np.ndarray]:
        """Nodes/weights over the support, with panel edges at every atom
        boundary so each mollifier atom is resolved at its own width."""
        edges = sorted({x for _, x, _ in self.atoms} | {x + r for _, x, r in self.atoms})
        xs, ws = [], []
        for lo, hi in zip(edges, edges[1:]):
            x, w = composite_nodes(lo, hi, order, panels)
            xs.append(x)
            ws.append(w)
        return np.concatenate(xs), np.concatenate(ws)

    def moment_closed_form(self, m: int) -> float:
        """int t^m via the binomial expansion against the cached b_i (no quadrature)."""
        if not 0 <= m <= MAX_MOMENT:
            raise ValueError(f"moment order must be in [0, {MAX_MOMENT}]")
        total = 0.0
        for c, x, r in self.atoms:
            total += c * sum(comb(m, i) * base_moment(i) * r**i * x ** (m - i) for i in range(m + 1))
        return total

    def to_json(self) -> str:
        return json.dumps(
            {"atoms": [[repr(c), repr(x), repr(r)] for c, x, r in self.atoms]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "BumpCombination":
        data = json.loads(text)
        return cls(tuple((float(c), float(x), float(r)) for c, x, r in data["atoms"]))


@dataclass(frozen=True)
class MomentBump:
    """A constructed bump plus the verification data of its linear system."""

    bump: BumpCombination
    target_exponent: int
    excluded_exponents: tuple[int, ...]
    moments: dict[int, float]
    determinant: float
    determinant_closed_form: float


def moment_bump(a: float, a1: int, excluded: Sequence[int] = ()) -> MomentBump:
    """A bump on (0, a) with mass 0, moment a1 nonzero, excluded moments zero.

    Atoms sit at x_j = r_j = (a/2) c^{j-1}; with exponents a_0 = 0 < a_1, ...
    the system matrix factors as diag(y) times a Vandermonde in c^{a_l}, so
    it is provably nonsingular.
    """
    excluded = tuple(sorted(set(int(e) for e in excluded)))
    if not isfinite(a) or a <= 0:
        raise ValueError(f"support length a must be positive and finite, got {a!r}")
    if a1 <= 0 or any(e <= 0 for e in excluded):
        raise ValueError("moment exponents must be positive integers")
    if a1 in excluded:
        raise ValueError(f"target exponent {a1} cannot also be excluded")
    exponents = [0, int(a1), *excluded]
    k = len(exponents) - 1
    if k > MAX_CONSTRAINTS:
        raise ValueError(f"at most {MAX_CONSTRAINTS} moment constraints supported")
    if max(exponents) > MAX_MOMENT:
        raise ValueError(f"exponents beyond {MAX_MOMENT} are not supported")

    c_ratio = GEOMETRIC_RATIO
    x1 = r1 = a / 2.0
    xs = [x1 * c_ratio**j for j in range(k + 1)]
    rs = [r1 * c_ratio**j for j in range(k + 1)]

    unit = BumpCombination(((1.0, x1, r1),))
    y = [1.0] + [unit.moment_closed_form(al) for al in exponents[1:]]
    z = [c_ratio**al for al in exponents]
    matrix = np.array([[y[l] * z[l] ** j for j in range(k + 1)] for l in range(k + 1)])
    rhs = np.zeros(k + 1)
    rhs[1] = 1.0

    coeffs = np.linalg.solve(matrix, rhs)
    # one refinement step with the residual accumulated in extended precision
    residual = rhs - (matrix.astype(np.longdouble) @ coeffs.astype(np.longdouble)).astype(float)
    coeffs = coeffs + np.linalg.solve(matrix, residual)

    det = float(np.linalg.det(matrix))
    det_closed = float(np.prod(y)) * float(
        np.prod([z[lp] - z[l] for l in range(k + 1) for lp in range(l + 1, k + 1)])
    )

    bump = BumpCombination(tuple((float(cj), xj, rj) for cj, xj, rj in zip(coeffs, xs, rs)))
    # closed form against the cached base moments; the tests' adaptive
    # quadrature moment is the independent check, and its ~1e-10 error can
    # exceed the 1e-10 mass threshold on its own
    achieved = {e: bump.moment_closed_form(e) for e in exponents}
    return MomentBump(bump, int(a1), excluded, achieved, det, det_closed)


@dataclass(frozen=True)
class TensorBump:
    """A product of one-dimensional bumps on R^N; moments factorize."""

    factors: tuple[BumpCombination, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a tensor bump needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dimension(self) -> int:
        return len(self.factors)

    def __call__(self, points) -> np.ndarray:
        return self.derivative_values(points, (0,) * self.dimension)

    def derivative_values(self, points, orders: Sequence[int]) -> np.ndarray:
        if len(orders) != self.dimension:
            raise ValueError(f"orders must have {self.dimension} entries, got {len(orders)}")
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dimension:
            raise ValueError(f"points must have last axis {self.dimension}")
        out = np.ones(pts.shape[:-1])
        for i, (f, m) in enumerate(zip(self.factors, orders)):
            out = out * f.derivative_values(pts[..., i], m)
        return out

    def support_box(self) -> list[tuple[float, float]]:
        return [f.support() for f in self.factors]

    def quadrature_rule(self, order: int, panels: int = 2) -> tuple[np.ndarray, np.ndarray]:
        """Tensor rule built from each factor's atom-aligned 1-D rule."""
        return tensor_rule([f.quadrature_rule(order, panels) for f in self.factors])

    def moment(self, alpha: Sequence[int]) -> float:
        """int t^alpha * product, via each factor's closed-form 1-D moment."""
        if len(alpha) != self.dimension:
            raise ValueError("one exponent per axis required")
        total = 1.0
        for f, m in zip(self.factors, alpha):
            total *= f.moment_closed_form(m)
        return total


def tensor_bump(components: Sequence[BumpCombination]) -> TensorBump:
    return TensorBump(tuple(components))
