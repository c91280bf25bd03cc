from .fields import QQ, QuadExtField, QuadExtElement, RationalField
from .poly import (
    FracFuncElement,
    FractionField,
    INF,
    Poly,
    RatFunc,
    factor_over,
    poly_pow,
    ratfunc_of_fractions,
    ratfunc_sum,
    root_multiplicity,
)
from .series import (
    LogSeries,
    TruncSeries,
    expand_ratfunc,
    linear_forms_ints,
    monomial_sum,
    ratfunc_at_series,
)

#: shared field of rational functions in the quantization parameter
HBAR_FIELD = FractionField()

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
    "poly_pow",
    "ratfunc_of_fractions",
    "ratfunc_sum",
    "root_multiplicity",
    "INF",
    "LogSeries",
    "TruncSeries",
    "expand_ratfunc",
    "linear_forms_ints",
    "monomial_sum",
    "ratfunc_at_series",
]
