"""Gauss-Legendre quadrature: fixed tensor rules and an adaptive driver."""

from __future__ import annotations

from functools import cache
from typing import Callable, Sequence

from ._numpy import np


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance."""


# the rule's eigenproblem holds order^2 doubles, and a 2-D experiment rule
# over an atom-aligned bump has 16 order^2 nodes
MAX_QUAD_ORDER = 128


@cache
def legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]; the order must lie in [1, MAX_QUAD_ORDER]."""
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order {order} must lie in [1, {MAX_QUAD_ORDER}]")
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-12,
    order: int = 24,
) -> float:
    """Adaptive panel-splitting Gauss-Legendre integral of a vectorized f.

    A panel is accepted when one rule application agrees with its two-half
    refinement to within its share of the tolerance (QuadratureError past depth 24).
    """

    def quad(lo: float, hi: float) -> float:
        x, w = panel_nodes(lo, hi, order)
        return float(np.dot(w, f(x)))

    eps = float(np.finfo(float).eps)

    def recurse(lo: float, hi: float, budget: float, whole: float, depth: int) -> float:
        mid = 0.5 * (lo + hi)
        left, right = quad(lo, mid), quad(mid, hi)
        err = abs(left + right - whole)
        # roundoff floor: past this, subdivision cannot help
        if err <= max(budget, 64 * eps * (abs(left) + abs(right))):
            return left + right
        if depth >= 24:
            raise QuadratureError(
                f"no convergence on [{lo}, {hi}]: achieved {err:.3e}, wanted {budget:.3e}"
            )
        return recurse(lo, mid, budget / 2, left, depth + 1) + recurse(
            mid, hi, budget / 2, right, depth + 1
        )

    return recurse(a, b, tol, quad(a, b), 0)


def composite_nodes(a: float, b: float, order: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule applied on `panels` equal subintervals of [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    parts = [panel_nodes(lo, hi, order) for lo, hi in zip(edges, edges[1:])]
    return np.concatenate([x for x, _ in parts]), np.concatenate([w for _, w in parts])


def tensor_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Points (m, dim) of the tensor grid over 1-D node arrays, the last axis varying fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def tensor_rule(axes: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of 1-D (nodes, weights) rules: points (m, dim) and weights (m,)."""
    weights = axes[0][1]
    for _, w in axes[1:]:
        weights = np.multiply.outer(weights, w)
    return tensor_grid([x for x, _ in axes]), weights.reshape(-1)
