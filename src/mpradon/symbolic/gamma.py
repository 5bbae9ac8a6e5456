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

The exponential expansion gamma ~ exp(sum t^alpha Xhat_alpha) is a direct
coefficient read-off in both families, since gamma is given in exponential
form.  ``verify_taylor_relation`` checks, exactly, that the two expansions
are related by X_alpha = |alpha| Xhat_alpha + V_alpha with

    V_alpha = -1/2 sum_{beta+gamma=alpha} |gamma| [Xhat_beta, Xhat_gamma],

the step-2 correction (identically zero on the line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from ..dilations import Degree, ExponentScheme, MultiIndex, check_multi_index, degree
from .fields import HEISENBERG_BASIS, LINE_BASIS, BasisVector
from .poly import Polynomial

TRANSLATION_LINE = "translation_line"
HEISENBERG = "heisenberg"


class UnsupportedFamily(ValueError):
    """The curve family is outside the decidable classes handled here."""


def canonical_index_key(alpha: MultiIndex):
    return (sum(alpha), tuple(-a for a in alpha))


@dataclass(frozen=True)
class GammaSpec:
    """A curve family instance together with its dilation scheme."""

    family: str
    scheme: ExponentScheme
    p: Polynomial | None = None
    exponents: tuple[Polynomial, Polynomial, Polynomial] | None = None

    def __post_init__(self):
        if self.family == TRANSLATION_LINE:
            if self.p is None or self.exponents is not None:
                raise ValueError("translation_line takes exactly the polynomial p")
            polys = (self.p,)
        elif self.family == HEISENBERG:
            if self.exponents is None or self.p is not None:
                raise ValueError("heisenberg takes exactly the exponent triple (P1, P2, P3)")
            if len(self.exponents) != 3:
                raise ValueError("heisenberg needs three exponent polynomials")
            vars0 = self.exponents[0].variables
            if any(q.variables != vars0 for q in self.exponents):
                raise ValueError("P1, P2, P3 must share the same variables")
            polys = self.exponents
        else:
            raise UnsupportedFamily(
                f"unsupported family {self.family!r}: only {TRANSLATION_LINE!r} and "
                f"{HEISENBERG!r} admit a finite decidable criterion"
            )
        for q in polys:
            if q.constant_term() != 0:
                raise ValueError("curve polynomials must have zero constant term (gamma_0 = id)")
            if q.nvars != self.scheme.n_t:
                raise ValueError(
                    f"polynomial in {q.nvars} variables vs scheme with N={self.scheme.n_t}"
                )

    @classmethod
    def translation_line(cls, p: Polynomial, scheme: ExponentScheme | None = None) -> "GammaSpec":
        return cls(TRANSLATION_LINE, scheme or ExponentScheme.product(p.nvars), p=p)

    @classmethod
    def heisenberg(
        cls,
        p1: Polynomial,
        p2: Polynomial,
        p3: Polynomial,
        scheme: ExponentScheme | None = None,
    ) -> "GammaSpec":
        return cls(
            HEISENBERG,
            scheme or ExponentScheme.product(p1.nvars),
            exponents=(p1, p2, p3),
        )

    @property
    def variables(self) -> tuple[str, ...]:
        return (self.p or self.exponents[0]).variables


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "basis", tuple(self.basis))

    def __eq__(self, other):
        return (
            isinstance(other, WExpansion)
            and self.scheme == other.scheme
            and self.basis == other.basis
            and dict(self.terms) == dict(other.terms)
        )

    def degree_of(self, alpha: MultiIndex) -> Degree:
        return degree(alpha, self.scheme)

    def support(self) -> list[MultiIndex]:
        """Multi-indices in canonical order: by total degree, then lex with the
        first variable heaviest (so (1,0) precedes (0,1))."""
        return sorted(self.terms, key=canonical_index_key)

    def is_zero(self) -> bool:
        return not self.terms

    @classmethod
    def from_scalar_polynomial(
        cls,
        p: Polynomial,
        scheme: ExponentScheme | None = None,
        basis: tuple[str, ...] = LINE_BASIS,
        direction: tuple[Fraction, ...] | None = None,
    ) -> "WExpansion":
        """Expansion p(t) * v for a fixed constant field v (default d/dx)."""
        scheme = scheme or ExponentScheme.product(p.nvars)
        direction = direction or tuple(
            Fraction(1) if i == 0 else Fraction(0) for i in range(len(basis))
        )
        v = BasisVector(direction, basis)
        return cls(scheme, basis, {a: v.scaled(c) for a, c in p.terms.items() if sum(a) > 0})


def _poly_coefficient_expansion(
    polys: tuple[Polynomial, ...], scheme: ExponentScheme, basis: tuple[str, ...]
) -> WExpansion:
    terms: dict[MultiIndex, list[Fraction]] = {}
    for i, q in enumerate(polys):
        for alpha, c in q.terms.items():
            terms.setdefault(alpha, [Fraction(0)] * len(basis))[i] = c
    return WExpansion(
        scheme, basis, {a: BasisVector(tuple(v), basis) for a, v in terms.items()}
    )


def w_from_translation_gamma(spec: GammaSpec) -> WExpansion:
    """W for gamma_t(x) = x - p(t):  X_alpha = -|alpha| c_alpha d/dx."""
    if spec.family != TRANSLATION_LINE:
        raise UnsupportedFamily("w_from_translation_gamma needs a translation_line spec")
    w_poly = -spec.p.scaling_derivative()
    return _poly_coefficient_expansion((w_poly,), spec.scheme, LINE_BASIS)


def w_from_heisenberg_gamma(spec: GammaSpec) -> WExpansion:
    """W for gamma_s = right translation by exp(P1 X + P2 Y + P3 T), exact step-2 form."""
    if spec.family != HEISENBERG:
        raise UnsupportedFamily("w_from_heisenberg_gamma needs a heisenberg spec")
    p1, p2, p3 = spec.exponents
    d1, d2, d3 = (q.scaling_derivative() for q in spec.exponents)
    w3 = d3 - (p1 * d2 - p2 * d1) * Fraction(1, 2)
    return _poly_coefficient_expansion((d1, d2, w3), spec.scheme, HEISENBERG_BASIS)


def w_expansion(spec: GammaSpec) -> WExpansion:
    if spec.family == TRANSLATION_LINE:
        return w_from_translation_gamma(spec)
    return w_from_heisenberg_gamma(spec)


def xhat_expansion(spec: GammaSpec) -> WExpansion:
    """The exponential-form coefficients Xhat_alpha, read off directly.

    Line: gamma_t(x) = x - p(t) = exp(-p(t) d/dx) x, so Xhat_alpha = -c_alpha d/dx.
    Heisenberg: Xhat_alpha = c^1_alpha X + c^2_alpha Y + c^3_alpha T.
    """
    if spec.family == TRANSLATION_LINE:
        return _poly_coefficient_expansion((-spec.p,), spec.scheme, LINE_BASIS)
    return _poly_coefficient_expansion(spec.exponents, spec.scheme, HEISENBERG_BASIS)


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
