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
the step-2 term on T, summed in one pass on integer numerators.  A spec
grades each multi-index once for both expansions.  ``verify_taylor_relation``
in tests/oracles.py checks, exactly, that the two expansions are related by
X_alpha = |alpha| Xhat_alpha + V_alpha with

    V_alpha = -1/2 sum_{beta+gamma=alpha} |gamma| [Xhat_beta, Xhat_gamma],

the step-2 correction (identically zero on the line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from ..dilations import Degree, ExponentScheme, MultiIndex, _grade, degree
from .fields import HEISENBERG_BASIS, LINE_BASIS
from .poly import Polynomial, _coeff

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

    @cached_property
    def _coordinates(self) -> tuple[Polynomial, ...]:
        """The exponential-form coordinates: the polynomials times the family's sign."""
        return tuple(-q for q in self.polynomials) if FAMILIES[self.family].sign < 0 else self.polynomials

    @cached_property
    def _grades(self) -> dict[MultiIndex, Degree]:
        """deg(alpha) of each multi-index of W and Xhat, graded once for both."""
        return {}

    # The expansions are computed on first use and kept on the (immutable)
    # spec, so every caller of w_expansion / xhat_expansion shares one object.
    @cached_property
    def _w(self) -> "WExpansion":
        q = self._coordinates
        w = [c.scaling_derivative() for c in q[:2]]  # p on the line; P1, P2 on H^1
        if self.family == HEISENBERG:
            w.append(_heisenberg_t(*q))
        return _poly_coefficient_expansion(w, FAMILIES[self.family].basis, self.scheme, self._grades)

    @cached_property
    def _xhat(self) -> "WExpansion":
        return _poly_coefficient_expansion(self._coordinates, FAMILIES[self.family].basis, self.scheme, self._grades)


def _heisenberg_t(p1: Polynomial, p2: Polynomial, p3: Polynomial) -> Polynomial:
    """W's T coordinate on H^1, Pdot_3 - 1/2 (P_1 Pdot_2 - P_2 Pdot_1), in one pass:
    P_1 Pdot_2 - P_2 Pdot_1 = sum a_alpha b_beta (|beta| - |alpha|) t^(alpha + beta),
    summed with Pdot_3 as integer numerators over one common denominator."""
    da, db, dc = (lcm(*(c.denominator for c in p.terms.values())) for p in (p1, p2, p3))
    den = lcm(2 * da * db, dc)
    out = {g: sum(g) * c.numerator * (den // c.denominator) for g, c in p3.terms.items()}
    bs = [(beta, sum(beta), c.numerator * (db // c.denominator)) for beta, c in p2.terms.items()]
    for alpha, c in p1.terms.items():
        a, k = -c.numerator * (da // c.denominator) * (den // (2 * da * db)), sum(alpha)
        for beta, kb, b in bs:
            if kb != k:
                g = tuple(map(add, alpha, beta))
                out[g] = out.get(g, 0) + a * b * (kb - k)
    return Polynomial._trusted(p3.variables, {g: Fraction(n, den) for g, n in out.items() if n})


@dataclass(frozen=True)
class WExpansion:
    """A finite Taylor expansion sum_alpha t^alpha * (constant field), each
    field a tuple of Fraction coordinates in the expansion's basis.

    ``terms`` iterates in canonical order: by total degree, then lex with the
    first variable heaviest (so (1,0) precedes (0,1)).  ``degrees`` holds
    each term's deg(alpha) under the scheme, in the same order.
    """

    scheme: ExponentScheme
    basis: tuple[str, ...]
    terms: Mapping[MultiIndex, tuple[Fraction, ...]] = field(default_factory=dict)
    degrees: Mapping[MultiIndex, Degree] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = tuple(self.basis)
        clean: dict[MultiIndex, tuple[Fraction, ...]] = {}
        degrees: dict[MultiIndex, Degree] = {}
        for alpha, coords in self.terms.items():
            alpha = tuple(alpha)
            if sum(alpha) == 0:
                raise ValueError("expansions start at |alpha| > 0")
            if len(coords) != len(basis):
                raise ValueError(f"coordinate count {len(coords)} does not match the basis {basis}")
            coords = tuple(coords if all(type(c) is Fraction for c in coords) else map(_coeff, coords))
            # every key is validated, also one whose zero field is dropped
            deg = degree(alpha, self.scheme)
            if any(coords):
                clean[alpha] = coords
                degrees[alpha] = deg
        order = sorted(clean, key=canonical_index_key)
        # read-only: a spec hands the same expansion to every caller
        object.__setattr__(self, "terms", MappingProxyType({a: clean[a] for a in order}))
        object.__setattr__(self, "degrees", MappingProxyType({a: degrees[a] for a in order}))
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _trusted(cls, scheme, basis, terms, degrees) -> "WExpansion":
        """Wrap valid terms in canonical order and their degrees, unchecked, as ``Polynomial._trusted`` does."""
        w = object.__new__(cls)
        w.__dict__.update(scheme=scheme, basis=basis, terms=MappingProxyType(terms), degrees=MappingProxyType(degrees))
        return w

    def support(self) -> list[MultiIndex]:
        """The multi-indices, in canonical order."""
        return list(self.terms)


def _poly_coefficient_expansion(
    polys: Sequence[Polynomial], basis: tuple[str, ...], scheme: ExponentScheme, grades: dict
) -> WExpansion:
    """sum_alpha t^alpha sum_i c^i_alpha B_i over the given basis; ``grades``
    (the spec's alpha -> deg(alpha)) gains the degrees it lacks."""
    terms: dict[MultiIndex, list[Fraction]] = {}
    zero = Fraction(0)
    for i, q in enumerate(polys):
        for alpha, c in q.terms.items():
            terms.setdefault(alpha, [zero] * len(basis))[i] = c
    order = sorted(sorted(terms, reverse=True), key=sum)  # canonical: |alpha| up, then alpha down
    degrees = {a: grades.get(a) or grades.setdefault(a, _grade(a, scheme)) for a in order}
    return WExpansion._trusted(scheme, basis, {a: tuple(terms[a]) for a in order}, degrees)


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


# -- the model flows x - p(s, t) of the norm-growth experiment ----------------

CASES = ("kitty", "know", "billy")
MAX_LEVEL = 1074  # 2^-L must be a nonzero float: 2^-1075 rounds to 0.0


def case_polynomial(case: str, level: int | None = None) -> Polynomial:
    """The flow polynomial p with gamma_t(x) = x - p(s, t) for each case."""
    variables = ("s", "t")
    if case == "kitty":
        return Polynomial.parse("s*t", variables)
    if case == "know":
        if level is None:
            raise ValueError("the 'know' case needs the scale parameter L")
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"the scale parameter L = {level} must lie in [0, {MAX_LEVEL}] (2^-L must be a nonzero float)")
        eps = Fraction(1, 2**level)
        return Polynomial(variables, {(3, 0): eps, (0, 3): eps, (1, 1): Fraction(1)})
    if case == "billy":
        return Polynomial.parse("s + s*t", variables)
    raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
