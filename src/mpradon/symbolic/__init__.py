"""Exact symbolic layer: polynomials, vector fields, and curve expansions."""

from .fields import (
    HEISENBERG_BASIS,
    LINE_BASIS,
    BasisVector,
)
from .gamma import (
    FAMILIES,
    HEISENBERG,
    TRANSLATION_LINE,
    GammaSpec,
    UnsupportedFamily,
    WExpansion,
    w_expansion,
    xhat_expansion,
)
from .poly import Polynomial

__all__ = [
    "FAMILIES",
    "BasisVector",
    "GammaSpec",
    "HEISENBERG",
    "HEISENBERG_BASIS",
    "LINE_BASIS",
    "Polynomial",
    "TRANSLATION_LINE",
    "UnsupportedFamily",
    "WExpansion",
    "w_expansion",
    "xhat_expansion",
]
