from .fields import QQ, QuadExtField, QuadExtElement, RationalField
from .poly import (
    FracFuncElement,
    FractionField,
    Poly,
    RatFunc,
    factor_over,
    factor_rational_poly,
    partial_fractions,
    poly_pow,
    residue_at,
    root_multiplicity,
)
from .series import INF, LogSeries, TruncSeries, expand_poly, expand_ratfunc

#: shared field of rational functions in the quantization parameter
HBAR_FIELD = FractionField(QQ, "h")

__all__ = [
    "HBAR_FIELD",
    "QQ",
    "QuadExtField",
    "QuadExtElement",
    "RationalField",
    "FractionField",
    "FracFuncElement",
    "Poly",
    "RatFunc",
    "factor_over",
    "factor_rational_poly",
    "partial_fractions",
    "poly_pow",
    "residue_at",
    "root_multiplicity",
    "INF",
    "LogSeries",
    "TruncSeries",
    "expand_poly",
    "expand_ratfunc",
]
