"""Exact symbolic layer: polynomials, vector fields, and curve expansions."""

from .fields import (
    HEISENBERG_BASIS,
    LINE_BASIS,
    BasisVector,
)
from .gamma import (
    HEISENBERG,
    TRANSLATION_LINE,
    GammaSpec,
    TaylorRelationReport,
    UnsupportedFamily,
    WExpansion,
    verify_taylor_relation,
    w_expansion,
    w_from_heisenberg_gamma,
    w_from_translation_gamma,
    xhat_expansion,
)
from .poly import Polynomial

__all__ = [
    "BasisVector",
    "GammaSpec",
    "HEISENBERG",
    "HEISENBERG_BASIS",
    "LINE_BASIS",
    "Polynomial",
    "TRANSLATION_LINE",
    "TaylorRelationReport",
    "UnsupportedFamily",
    "WExpansion",
    "verify_taylor_relation",
    "w_expansion",
    "w_from_heisenberg_gamma",
    "w_from_translation_gamma",
    "xhat_expansion",
]
