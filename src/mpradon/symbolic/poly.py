"""Multivariate polynomials with exact rational coefficients.

Terms are stored sparsely as a map from exponent multi-index to Fraction.
Display and iteration use graded-lex order (total degree descending, then
lexicographic descending), so printed forms, hashes, and reports are
deterministic.  The text grammar round-trips exactly:

    3*s^2*t - 1/2*s*t^3

Products need an explicit ``*`` and powers an explicit ``^``; rational
literals are written ``p/q``.  The parser and the product work on integer
numerators over a common denominator and build one Fraction per term.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add
from typing import Mapping, Sequence

Exponents = tuple[int, ...]


def _coeff(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("polynomial coefficients must be exact rationals, got float")
    return Fraction(value)


def _variables(names: Sequence[str]) -> tuple[str, ...]:
    names = tuple(names)
    if len(set(names)) != len(names) or not names:
        raise ValueError("variables must be a nonempty list of distinct names")
    return names


class Polynomial:
    """An exact polynomial in named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Fraction] | None = None):
        variables = _variables(variables)
        clean: dict[Exponents, Fraction] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables) or any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {len(variables)} variables")
            c = _coeff(c)
            if c != 0:
                clean[exps] = clean[exps] + c if exps in clean else c
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap terms that are already valid, skipping the constructor's checks.

        For results of arithmetic on valid polynomials and of the parser:
        every key is a tuple of len(variables) nonnegative ints and every
        value a nonzero Fraction.  The caller drops zero coefficients and
        hands over the dict.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        return cls(variables, {tuple(0 for _ in variables): _coeff(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        i = tuple(variables).index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    # -- basic queries -------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(tuple(0 for _ in self.variables), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        # graded lex, descending
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------

    def _check_same_vars(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        self._check_same_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return Polynomial._trusted(self.variables, {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return self + -Fraction(other)
        # self + (-other), without building -other
        self._check_same_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] - c if e in out else -c
        return Polynomial._trusted(self.variables, {e: c for e, c in out.items() if c})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coeff(other)
            terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return Polynomial._trusted(self.variables, terms)
        self._check_same_vars(other)
        # products of integer numerators over the two common denominators,
        # with one Fraction per term of the result
        dp = lcm(*(c.denominator for c in self.terms.values()))
        dq = lcm(*(c.denominator for c in other.terms.values()))
        qs = [(e2, c2.numerator * (dq // c2.denominator)) for e2, c2 in other.terms.items()]
        out: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            n1 = c1.numerator * (dp // c1.denominator)
            for e2, n2 in qs:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + n1 * n2
        den = dp * dq
        return Polynomial._trusted(
            self.variables, {e: Fraction(n, den) for e, n in out.items() if n}
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Polynomial.constant(self.variables, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------

    def partial(self, var: int | str) -> "Polynomial":
        i = var if isinstance(var, int) else self.variables.index(var)
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            # e -> de is one-to-one on the terms with e[i] > 0
            de = tuple(v - 1 if j == i else v for j, v in enumerate(e))
            out[de] = c * e[i]
        return Polynomial._trusted(self.variables, out)

    def scaling_derivative(self) -> "Polynomial":
        """d/d(eps) p(eps * t) at eps = 1, i.e. sum |alpha| c_alpha t^alpha."""
        return Polynomial._trusted(
            self.variables,
            {e: Fraction(c.numerator * sum(e), c.denominator) for e, c in self.terms.items() if sum(e) > 0},
        )

    def __call__(self, point: Sequence) -> Fraction | float:
        if len(point) != self.nvars:
            raise ValueError("evaluation point has wrong arity")
        total = Fraction(0) if all(not isinstance(x, float) for x in point) else 0.0
        for e, c in self.terms.items():
            mono = c if isinstance(total, Fraction) else float(c)
            for x, a in zip(point, e):
                if a:
                    mono *= x**a
            total += mono
        return total

    def float_terms(self) -> list[tuple[float, Exponents]]:
        """Coefficients as floats in canonical order, for numeric evaluation."""
        return [(float(c), e) for e, c in self.sorted_terms()]

    # -- printing / parsing --------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, a in zip(self.variables, exps):
                if a == 1:
                    factors.append(name)
                elif a > 1:
                    factors.append(f"{name}^{a}")
            mag = str(c).lstrip("-")  # |c|, without building it
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = "*".join([mag] + factors)
            if not parts:
                parts.append(body if c.numerator > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c.numerator > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.variables)!r}, '{self}')"

    @classmethod
    def parse(cls, text: str, variables: Sequence[str]) -> "Polynomial":
        return _parse(text, _variables(variables))


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|[+\-*/^])")


def _tokenize(text: str) -> list[str]:
    """The tokens, by one findall; text that no token takes is an error.  Tokens
    hold no whitespace, so they cover the text iff they spell its non-whitespace."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != "".join(text.split()):
        pos = 0
        for m in _TOKEN.finditer(text):  # the first text that no token starts at
            if m.start() != pos:
                break
            pos = m.end()
        raise ValueError(f"unexpected character at position {pos}: {text[pos:]!r}")
    return tokens


def _parse(text: str, variables: tuple[str, ...]) -> Polynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    terms: dict[Exponents, Fraction] = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        # the term's coefficient as an integer ratio, made a Fraction once
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
        # like terms are summed as they come; a sum that cancels is removed,
        # so a term that appears again goes last, as it would under p + q
        exps = tuple(exps)
        c = Fraction(num) if den == 1 else Fraction(num, den)
        total = terms[exps] + c if exps in terms else c
        if total:
            terms[exps] = total
        else:
            terms.pop(exps, None)
    return Polynomial._trusted(variables, terms)
