"""Exponent schemes, multi-index degrees, and multi-parameter dilations.

An exponent scheme assigns to each of the N coordinates of t a vector
e_i in [0, oo)^nu of rational exponents.  It induces

  * the degree map  deg(alpha) = alpha_1 e_1 + ... + alpha_N e_N,
  * the point dilation  delta t = (delta^{e_1} t_1, ..., delta^{e_N} t_N),
  * the mass-preserving function dilation
      f^(delta)(t) = delta^{e_1 + ... + e_N} f(delta t).

Every quantity on the criteria path is kept in exact rational arithmetic;
only the dilation factors (which feed the numerics) work in floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, prod
from typing import Sequence

MultiIndex = tuple[int, ...]
Degree = tuple[Fraction, ...]

# largest |n| in a decimal exponent of scheme text ('1e-3'); Fraction expands 10**n exactly
MAX_DECIMAL_EXPONENT = 300


class DimensionMismatch(ValueError):
    """Input sizes do not match the scheme's (N, nu)."""


def _rat(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "scheme exponents must be exact rationals (int, Fraction or 'p/q' string), got float"
        )
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (len(digits) > 3 or int(digits) > MAX_DECIMAL_EXPONENT):
            raise ValueError(
                f"scheme exponent {value!r}: the decimal exponent must lie in "
                f"[-{MAX_DECIMAL_EXPONENT}, {MAX_DECIMAL_EXPONENT}]"
            )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"scheme exponent {value!r} has a zero denominator") from None


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
        return cls(tuple(map(tuple, rows)))

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

    def slice_coordinates(self, mu: int) -> tuple[int, ...]:
        """Indices i with e_i^mu != 0 (the coordinates grouped as t^mu)."""
        return tuple(i for i, r in enumerate(self.rows) if r[mu] != 0)

    @cached_property
    def _degrees(self) -> dict[MultiIndex, Degree]:
        """``degree``'s results for this scheme, keyed by validated multi-index."""
        return {}

    @cached_property
    def _factors(self) -> dict[tuple[float, ...], tuple[float, ...]]:
        """``dilation_factors``'s results for this scheme, keyed by validated delta."""
        return {}


def check_multi_index(alpha: Sequence[int], scheme: ExponentScheme) -> None:
    """Raise unless alpha has N = scheme.n_t nonnegative integer components."""
    if len(alpha) != scheme.n_t:
        raise DimensionMismatch(
            f"multi-index has {len(alpha)} components, scheme expects {scheme.n_t}"
        )
    if any((not isinstance(a, int)) or a < 0 for a in alpha):
        raise ValueError("multi-index components must be nonnegative integers")


def degree(alpha: Sequence[int], scheme: ExponentScheme) -> Degree:
    """deg(alpha) = sum_i alpha_i e_i, exact.

    Computed once per multi-index and scheme object: the result is kept on
    the scheme.  The multi-index is validated on every call, before the
    lookup, so an invalid one never matches a cached valid one.
    """
    check_multi_index(alpha, scheme)
    key = tuple(alpha)
    memo = scheme._degrees
    d = memo.get(key)
    if d is None:
        terms = [(a, row) for a, row in zip(key, scheme.rows) if a]
        d = memo[key] = tuple(
            sum((a * row[mu] for a, row in terms if row[mu]), Fraction(0))
            for mu in range(scheme.n_params)
        )
    return d


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
    try:
        if exp.denominator == 1:
            return float(base) ** int(exp)
        return float(base) ** float(exp)
    except OverflowError:
        # float ** raises where float * gives inf, and on an exponent too
        # large for a float, where the result may as well underflow
        if base == 1.0:
            return 1.0
        return inf if (base > 1) == (exp > 0) else 0.0


def dilation_factors(delta: Sequence[float], scheme: ExponentScheme) -> tuple[float, ...]:
    """Per-coordinate factors delta^{e_i} = prod_mu delta_mu^{e_i^mu}.

    Computed once per delta and scheme object, like ``degree``: delta is
    validated on every call, before the lookup.
    """
    if len(delta) != scheme.n_params:
        raise DimensionMismatch(
            f"delta has {len(delta)} components, scheme expects {scheme.n_params}"
        )
    if any(d < 0 for d in delta):
        raise ValueError("dilation parameters must be nonnegative")
    key = tuple(delta)
    memo = scheme._factors
    factors = memo.get(key)
    if factors is None:
        factors = memo[key] = tuple(
            prod(_pow(float(d), e) for d, e in zip(key, row)) for row in scheme.rows
        )
    return factors
