"""Curve families and their W / exponential expansions.

Supported families (the ones whose boundedness question reduces to a finite
decidable check):

  * ``translation_line``:  gamma_t(x) = x - p(t) on R^1, p a polynomial with
    zero constant term.  Here W(t) = -(d/d eps) p(eps t)|_{eps=1} * d/dx.

  * ``heisenberg``:  gamma_s(xi) = xi . exp(P_1(s) X + P_2(s) Y + P_3(s) T)
    on H^1, i.e. the time-1 flow of a left-invariant field with polynomial
    exponent components.  Since H^1 is nilpotent of step 2, the identity
    exp(A) exp(B) = exp(A + B + 1/2 [A, B]) is exact and yields the closed
    form

        W = Pdot_1 X + Pdot_2 Y + (Pdot_3 - 1/2 (P_1 Pdot_2 - P_2 Pdot_1)) T,

    with Pdot_i(s) = sum_alpha |alpha| c^i_alpha s^alpha.

Both families are given in exponential form, gamma_t = exp(sum_i q_i(t) B_i)
with coordinates (q_i) = (-p,) on the line and (P1, P2, P3) on H^1, so the
exponential expansion gamma ~ exp(sum t^alpha Xhat_alpha) is a direct
coefficient read-off of the q_i, and W is their scaling derivatives plus
the step-2 term on T.  ``verify_taylor_relation`` in tests/oracles.py
checks, exactly, that the two expansions are related by
X_alpha = |alpha| Xhat_alpha + V_alpha with

    V_alpha = -1/2 sum_{beta+gamma=alpha} |gamma| [Xhat_beta, Xhat_gamma],

the step-2 correction (identically zero on the line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from ..dilations import Degree, ExponentScheme, MultiIndex, check_multi_index, degree
from .fields import HEISENBERG_BASIS, LINE_BASIS, BasisVector, heisenberg_bracket
from .poly import Polynomial

TRANSLATION_LINE = "translation_line"
HEISENBERG = "heisenberg"


class Family(NamedTuple):
    """A curve family: gamma_t = exp(sign * sum_i q_i(t) B_i), B the basis."""

    keys: tuple[str, ...]  # the spec keys of the polynomials q_i, in order
    basis: tuple[str, ...]
    sign: int
    text: str  # the curve in a text report, formatted with the keys


# gamma_t(x) = x - p(t) = exp(-p(t) d/dx) x on the line
FAMILIES = {
    TRANSLATION_LINE: Family(("p",), LINE_BASIS, -1, "gamma_t(x) = x - ({p})"),
    HEISENBERG: Family(("p1", "p2", "p3"), HEISENBERG_BASIS, 1, "exp({p1} X + {p2} Y + {p3} T)"),
}


class UnsupportedFamily(ValueError):
    """The curve family is outside the decidable classes handled here."""


def canonical_index_key(alpha: MultiIndex):
    return (sum(alpha), tuple(-a for a in alpha))


@dataclass(frozen=True)
class GammaSpec:
    """A curve family instance, its dilation scheme and its polynomials, in
    the order of the family's keys: (p,) on the line, (P1, P2, P3) on H^1."""

    family: str
    scheme: ExponentScheme
    polynomials: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamily(
                f"unsupported family {self.family!r}: only {' and '.join(map(repr, FAMILIES))} "
                "admit a finite decidable criterion"
            )
        keys = FAMILIES[self.family].keys
        if len(self.polynomials) != len(keys):
            raise ValueError(f"{self.family} takes exactly the polynomials {', '.join(keys)}")
        if any(q.variables != self.variables for q in self.polynomials):
            raise ValueError(f"{', '.join(keys)} must share the same variables")
        for q in self.polynomials:
            if q.constant_term() != 0:
                raise ValueError("curve polynomials must have zero constant term (gamma_0 = id)")
            if q.nvars != self.scheme.n_t:
                raise ValueError(
                    f"polynomial in {q.nvars} variables vs scheme with N={self.scheme.n_t}"
                )

    @classmethod
    def translation_line(cls, p: Polynomial, scheme: ExponentScheme | None = None) -> "GammaSpec":
        return cls(TRANSLATION_LINE, scheme or ExponentScheme.product(p.nvars), (p,))

    @classmethod
    def heisenberg(
        cls,
        p1: Polynomial,
        p2: Polynomial,
        p3: Polynomial,
        scheme: ExponentScheme | None = None,
    ) -> "GammaSpec":
        return cls(HEISENBERG, scheme or ExponentScheme.product(p1.nvars), (p1, p2, p3))

    @property
    def variables(self) -> tuple[str, ...]:
        return self.polynomials[0].variables

    @property
    def _coordinates(self) -> tuple[Polynomial, ...]:
        """The exponential-form coordinates: the polynomials times the family's sign."""
        return tuple(-q for q in self.polynomials) if FAMILIES[self.family].sign < 0 else self.polynomials

    # The expansions are computed on first use and kept on the (immutable)
    # spec, so every caller of w_expansion / xhat_expansion shares one object.
    @cached_property
    def _w(self) -> "WExpansion":
        q = self._coordinates
        w = [c.scaling_derivative() for c in q]
        if self.family == HEISENBERG:  # exact step-2 term: -1/2 (P1 Pdot2 - P2 Pdot1) T
            w[2] = w[2] - heisenberg_bracket(q, w) * Fraction(1, 2)
        return _poly_coefficient_expansion(w, FAMILIES[self.family].basis, self.scheme)

    @cached_property
    def _xhat(self) -> "WExpansion":
        return _poly_coefficient_expansion(self._coordinates, FAMILIES[self.family].basis, self.scheme)


@dataclass(frozen=True)
class WExpansion:
    """A finite Taylor expansion sum_alpha t^alpha * (constant field)."""

    scheme: ExponentScheme
    basis: tuple[str, ...]
    terms: Mapping[MultiIndex, BasisVector] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[MultiIndex, BasisVector] = {}
        for alpha, vec in self.terms.items():
            alpha = tuple(alpha)
            if sum(alpha) == 0:
                raise ValueError("expansions start at |alpha| > 0")
            if vec.basis != tuple(self.basis):
                raise ValueError("term basis disagrees with the expansion basis")
            if not vec.is_zero():
                clean[alpha] = vec
                check_multi_index(alpha, self.scheme)
        # read-only: a spec hands the same expansion to every caller
        object.__setattr__(self, "terms", MappingProxyType(clean))
        object.__setattr__(self, "basis", tuple(self.basis))

    def degree_of(self, alpha: MultiIndex) -> Degree:
        return degree(alpha, self.scheme)

    def support(self) -> list[MultiIndex]:
        """Multi-indices in canonical order: by total degree, then lex with the
        first variable heaviest (so (1,0) precedes (0,1))."""
        return sorted(self.terms, key=canonical_index_key)

    def is_zero(self) -> bool:
        return not self.terms


def _poly_coefficient_expansion(
    polys: Sequence[Polynomial], basis: tuple[str, ...], scheme: ExponentScheme
) -> WExpansion:
    """sum_alpha t^alpha sum_i c^i_alpha B_i over the given basis."""
    terms: dict[MultiIndex, list[Fraction]] = {}
    for i, q in enumerate(polys):
        for alpha, c in q.terms.items():
            terms.setdefault(alpha, [Fraction(0)] * len(basis))[i] = c
    return WExpansion(
        scheme, basis, {a: BasisVector(tuple(v), basis) for a, v in terms.items()}
    )


def w_expansion(spec: GammaSpec) -> WExpansion:
    """W of the spec's family, computed once per spec object."""
    return spec._w


def xhat_expansion(spec: GammaSpec) -> WExpansion:
    """The exponential-form coefficients Xhat_alpha, read off directly.

    Line: gamma_t(x) = x - p(t) = exp(-p(t) d/dx) x, so Xhat_alpha = -c_alpha d/dx.
    Heisenberg: Xhat_alpha = c^1_alpha X + c^2_alpha Y + c^3_alpha T.
    Computed once per spec object.
    """
    return spec._xhat
