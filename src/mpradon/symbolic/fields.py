"""Constant basis vector fields.

A ``BasisVector`` is a constant-coefficient field written in a fixed
ordered basis.  The two bases used by the supported curve families are the
line basis (d/dx on R^1, abelian) and the Heisenberg basis {X, Y, T} with
[X, Y] = T and T central.  Brackets reduce to the structure constants,
which keeps the criteria path purely rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

LINE_BASIS = ("d/dx",)
HEISENBERG_BASIS = ("X", "Y", "T")


@dataclass(frozen=True)
class BasisVector:
    """A constant vector field, as coordinates in a fixed ordered basis."""

    coords: tuple[Fraction, ...]
    basis: tuple[str, ...] = LINE_BASIS

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "basis", tuple(self.basis))
        if len(coords) != len(self.basis):
            raise ValueError("coordinate count must match the basis size")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other: "BasisVector"):
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other: "BasisVector") -> "BasisVector":
        self._check(other)
        return BasisVector(tuple(a + b for a, b in zip(self.coords, other.coords)), self.basis)

    def __sub__(self, other: "BasisVector") -> "BasisVector":
        self._check(other)
        return BasisVector(tuple(a - b for a, b in zip(self.coords, other.coords)), self.basis)

    def __neg__(self) -> "BasisVector":
        return BasisVector(tuple(-c for c in self.coords), self.basis)

    def scaled(self, factor) -> "BasisVector":
        f = Fraction(factor)
        return BasisVector(tuple(f * c for c in self.coords), self.basis)

    def bracket(self, other: "BasisVector") -> "BasisVector":
        """Structure-constant bracket; abelian unless the basis is {X, Y, T}."""
        self._check(other)
        if self.basis == HEISENBERG_BASIS:
            a, b, _ = self.coords
            ap, bp, _ = other.coords
            return BasisVector((Fraction(0), Fraction(0), a * bp - ap * b), self.basis)
        return BasisVector(tuple(Fraction(0) for _ in self.coords), self.basis)

    def parallel_ratio(self, other: "BasisVector") -> Fraction | None:
        """r with self = r * other, if the two are parallel (other nonzero)."""
        self._check(other)
        ratio: Fraction | None = None
        for a, b in zip(self.coords, other.coords):
            if b == 0:
                if a != 0:
                    return None
                continue
            r = a / b
            if ratio is None:
                ratio = r
            elif ratio != r:
                return None
        return Fraction(0) if ratio is None and self.is_zero() else ratio

    def __str__(self) -> str:
        parts = []
        for c, name in zip(self.coords, self.basis):
            if c == 0:
                continue
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"
