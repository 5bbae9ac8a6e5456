"""Exponent schemes, multi-index degrees, and multi-parameter dilations.

An exponent scheme assigns to each of the N coordinates of t a vector
e_i in [0, oo)^nu of rational exponents.  It induces

  * the degree map  deg(alpha) = alpha_1 e_1 + ... + alpha_N e_N,
  * the point dilation  delta t = (delta^{e_1} t_1, ..., delta^{e_N} t_N),
  * the mass-preserving function dilation
      f^(delta)(t) = delta^{e_1 + ... + e_N} f(delta t).

Every quantity on the criteria path is kept in exact rational arithmetic;
only the point/function dilations (which feed the numerics) work in floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Sequence

MultiIndex = tuple[int, ...]
Degree = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Input sizes do not match the scheme's (N, nu)."""


def _rat(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "scheme exponents must be exact rationals (int, Fraction or 'p/q' string), got float"
        )
    return Fraction(value)


@dataclass(frozen=True)
class ExponentScheme:
    """The exponent matrix e = {e_i^mu}: N rows of nu nonnegative rationals.

    Validity requires every row and every column to carry a nonzero entry,
    so that each coordinate is dilated and each parameter acts.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(_rat(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("scheme needs at least one row")
        nu = len(rows[0])
        if nu == 0 or any(len(r) != nu for r in rows):
            raise ValueError("all scheme rows must have the same positive length")
        if any(v < 0 for r in rows for v in r):
            raise ValueError("scheme exponents must be nonnegative")
        if any(all(v == 0 for v in r) for r in rows):
            raise ValueError("every scheme row needs a nonzero entry")
        for mu in range(nu):
            if all(r[mu] == 0 for r in rows):
                raise ValueError(f"scheme column {mu} is identically zero")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExponentScheme":
        return cls(tuple(tuple(_rat(v) for v in row) for row in rows))

    @classmethod
    def product(cls, n: int) -> "ExponentScheme":
        """The standard product scheme: N = nu = n, e_i = i-th unit vector."""
        return cls.from_rows(
            [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def n_t(self) -> int:
        return len(self.rows)

    @property
    def n_params(self) -> int:
        return len(self.rows[0])

    def total_exponent(self) -> Degree:
        """e_1 + ... + e_N, the homogeneity degree of the function dilation."""
        nu = self.n_params
        return tuple(sum((r[mu] for r in self.rows), Fraction(0)) for mu in range(nu))

    def slice_coordinates(self, mu: int) -> tuple[int, ...]:
        """Indices i with e_i^mu != 0 (the coordinates grouped as t^mu)."""
        return tuple(i for i, r in enumerate(self.rows) if r[mu] != 0)


def check_multi_index(alpha: Sequence[int], scheme: ExponentScheme) -> None:
    """Raise unless alpha has N = scheme.n_t nonnegative integer components."""
    if len(alpha) != scheme.n_t:
        raise DimensionMismatch(
            f"multi-index has {len(alpha)} components, scheme expects {scheme.n_t}"
        )
    if any((not isinstance(a, int)) or a < 0 for a in alpha):
        raise ValueError("multi-index components must be nonnegative integers")


def degree(alpha: Sequence[int], scheme: ExponentScheme) -> Degree:
    """deg(alpha) = sum_i alpha_i e_i, exact."""
    check_multi_index(alpha, scheme)
    nu = scheme.n_params
    return tuple(
        sum((a * scheme.rows[i][mu] for i, a in enumerate(alpha)), Fraction(0))
        for mu in range(nu)
    )


def is_pure(d: Sequence[Fraction]) -> bool:
    """True iff the (nonzero) degree is supported in exactly one parameter."""
    nonzero = sum(1 for v in d if v != 0)
    if nonzero == 0:
        raise ValueError("pure/nonpure classification is undefined for the zero degree")
    return nonzero == 1


def _pow(base: float, exp: Fraction) -> float:
    # 0^0 = 1 so that zero parameter components annihilate exactly the
    # coordinates their exponents touch.
    if exp == 0:
        return 1.0
    if base == 0.0:
        return 0.0
    if exp.denominator == 1:
        return float(base) ** int(exp)
    return float(base) ** float(exp)


def dilation_factors(delta: Sequence[float], scheme: ExponentScheme) -> tuple[float, ...]:
    """Per-coordinate factors delta^{e_i} = prod_mu delta_mu^{e_i^mu}."""
    if len(delta) != scheme.n_params:
        raise DimensionMismatch(
            f"delta has {len(delta)} components, scheme expects {scheme.n_params}"
        )
    if any(d < 0 for d in delta):
        raise ValueError("dilation parameters must be nonnegative")
    return tuple(
        prod(_pow(float(d), e) for d, e in zip(delta, row)) for row in scheme.rows
    )


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
