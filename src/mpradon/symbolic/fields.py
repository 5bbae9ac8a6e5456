"""Constant vector fields as coordinates in a fixed ordered basis.

A constant field is a tuple of ``Fraction`` coordinates; the basis it is
written in is held once, by the expansion or closure that holds the field.
The two bases used by the supported curve families are the line basis
(d/dx on R^1, abelian) and the Heisenberg basis {X, Y, T} with [X, Y] = T
and T central.  ``heisenberg_bracket`` is the one copy of that structure
constant, which keeps the criteria path purely rational.
"""

from __future__ import annotations

from fractions import Fraction

LINE_BASIS = ("d/dx",)
HEISENBERG_BASIS = ("X", "Y", "T")


def heisenberg_bracket(u, v):
    """[u, v] = (u0 v1 - u1 v0) T on H^1, as [X, Y] = T with T central; returns the T coordinate."""
    return u[0] * v[1] - u[1] * v[0]


def field_text(coords: tuple[Fraction, ...], basis: tuple[str, ...]) -> str:
    """The field as text, e.g. ``X - 1/2*T``; ``0`` for the zero field."""
    parts = []
    for c, name in zip(coords, basis):
        text = str(c)  # one conversion per coordinate; it also tells 0, 1 and -1
        if text == "0":
            continue
        if text == "1":
            parts.append(name)
        elif text == "-1":
            parts.append(f"-{name}")
        else:
            parts.append(f"{text}*{name}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"
