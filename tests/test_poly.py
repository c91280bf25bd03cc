import inspect
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from quantcurve.algebra import (
    HBAR_FIELD,
    INF,
    Poly,
    QQ,
    QuadExtField,
    RatFunc,
    expand_ratfunc,
    factor_over,
    poly_pow,
    ratfunc_of_fractions,
    ratfunc_sum,
)
from quantcurve.algebra.poly import MAX_FACTOR_DEGREE


def P(*coeffs):
    return Poly(list(coeffs))


def test_gcd_example():
    # gcd(x^2 - 1, x^2 - 2x + 1) = x - 1
    assert P(-1, 0, 1).gcd(P(1, -2, 1)) == P(-1, 1)


def test_derivative_example():
    assert P(0, 0, 0, 1).derivative() == P(0, 0, 3)


def test_divrem_example():
    q, r = P(1, 0, 1).divrem(P(0, 1))
    assert q == P(0, 1) and r == P(1)


def test_divrem_by_zero():
    with pytest.raises(ZeroDivisionError):
        P(1, 1).divrem(P())


def test_gcd_is_monic():
    g = P(-2, 0, 2).gcd(P(2, -4, 2))
    assert g.leading() == 1


def test_leibniz_randomized():
    rng = random.Random(31)
    for _ in range(300):
        f = P(*[Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 6))])
        g = P(*[Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 6))])
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_poly_sqrt():
    f = P(1, 2, 1)
    r = f.sqrt()
    assert r is not None and r * r == f
    assert P(1, 1).sqrt() is None
    assert P(2, 0, 0).sqrt() is None


def test_factor_rational():
    facs = factor_over(P(-1, 0, 1))
    assert [(f.to_str(), m) for f, m in facs] == [("-1 + (1)*x", 1), ("1 + (1)*x", 1)]
    quartic = P(-1, 0, 1, 0, 1)
    facs = factor_over(quartic)
    assert len(facs) == 1 and facs[0][0].degree == 4 and facs[0][1] == 1


def test_factor_constants_zero_and_degree_cap():
    assert factor_over(P(Fraction(-3, 7))) == []
    with pytest.raises(ValueError, match="zero polynomial"):
        factor_over(P())
    too_big = MAX_FACTOR_DEGREE + 1
    with pytest.raises(ValueError, match=f"degree {too_big}"):
        factor_over(P(*[1] + [0] * (too_big - 1) + [1]))


def test_factor_negative_fractional_leading_coefficient():
    # -3/2 (x - 1/2)^2 (x^2 + 1/3)
    p = P(Fraction(-3, 2)) * P(Fraction(-1, 2), 1) * P(Fraction(-1, 2), 1) * P(Fraction(1, 3), 0, 1)
    assert [(f.coeffs, m) for f, m in factor_over(p)] == [
        ([Fraction(-1, 2), 1], 2), ([Fraction(1, 3), 0, 1], 1)]


def test_factor_needs_recombination():
    # x^4 - 10x^2 + 1, the minimal polynomial of sqrt 2 + sqrt 3, is
    # irreducible but splits into factors of degree <= 2 modulo every prime;
    # with (x^2 - 2)(x^2 - 3) the product splits mod 7 into two linear and
    # three quadratic factors, so x^2 - 2 needs a pair recombined
    sd = P(1, 0, -10, 0, 1)
    assert factor_over(sd) == [(sd, 1)]
    assert factor_over(sd * P(-2, 0, 1) * P(-3, 0, 1)) == [
        (P(-2, 0, 1), 1), (P(-3, 0, 1), 1), (sd, 1)]


def test_factor_sort_order_within_one_degree():
    # coefficient strings sort "-1" < "-10" < "1/2" < "2", not numerically
    lins = [P(2, 1), P(Fraction(1, 2), 1), P(-10, 1), P(-1, 1)]
    quads = [P(1, 1, 1), P(1, 0, 1), P(-2, 0, 1)]
    p = P(1)
    for f in lins + quads:
        p = p * f
    assert [f for f, _ in factor_over(p)] == [
        P(-1, 1), P(-10, 1), P(Fraction(1, 2), 1), P(2, 1),
        P(-2, 0, 1), P(1, 0, 1), P(1, 1, 1)]


def test_polynomial_layer_is_qq_only():
    # no constructor takes a field, and a coefficient outside QQ is refused
    # where a Poly is built, not carried into a second arithmetic path
    for fn in (Poly, Poly.const, Poly.x, RatFunc, RatFunc.const, RatFunc.x,
               RatFunc.from_coeffs, factor_over):
        assert "field" not in inspect.signature(fn).parameters
    assert Poly.field is QQ and RatFunc.field is QQ and P(1, 2).field is QQ
    for c in (QuadExtField(2).gen, HBAR_FIELD.gen):
        with pytest.raises(TypeError, match="into QQ"):
            Poly([1, c])
        with pytest.raises(TypeError, match="into QQ"):
            RatFunc.const(c)


def test_order_at_every_kind_of_place():
    f = RatFunc(P(0, 0, -1, 0, 1), P(1, 0, 1) * P(-1, 1))  # x^2 (x^2 - 1) / ((x^2 + 1)(x - 1))
    assert f.order_at(INF) == -1 and f.order_at(Fraction(0)) == 2
    assert f.order_at(Fraction(1)) == 0 and f.order_at(Fraction(-1)) == 1
    assert f.order_at(P(1, 0, 1)) == -1 and f.order_at(P(-2, 0, 1)) == 0
    with pytest.raises(ValueError):
        RatFunc(P()).order_at(INF)


SMALL_QQ = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
SMALL_POLY = st.lists(SMALL_QQ, min_size=1, max_size=4).map(lambda cs: P(*cs))


@st.composite
def ratfunc_at_point(draw):
    """A small nonzero RatFunc over QQ, a point of P^1, and a zero or pole
    of order up to 3 pushed onto that point."""
    num, den = draw(SMALL_POLY), draw(SMALL_POLY)
    if num.is_zero():
        num = P(1)
    if den.is_zero():
        den = P(1)
    place = draw(st.one_of(st.just(INF), SMALL_QQ))
    k = draw(st.integers(-3, 3))
    # x - p vanishes at p; x has a pole at INF, so a zero there goes below
    lin = P(0, 1) if place is INF else P(-place, 1)
    for _ in range(abs(k)):
        if (k > 0) != (place is INF):
            num = num * lin
        else:
            den = den * lin
    return RatFunc(num, den), place


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ratfunc_at_point())
def test_order_at_matches_the_expansion(fp):
    f, place = fp
    order = f.order_at(place)
    # |order| <= max(deg num, deg den), so this expansion holds the leading term
    ser = expand_ratfunc(f, place, f.num.degree + f.den.degree + 1)
    assert not ser.is_zero() and ser.val == order
    if place is not INF:
        assert f.order_at(P(-place, 1)) == order


def _sympy_factors(p):
    x = sympy.Symbol("x")
    _, factors = sympy.Poly([sympy.Rational(c) for c in reversed(p.coeffs)], x,
                            domain="QQ").factor_list()
    out = [(P(*[Fraction(str(c)) for c in reversed(f.all_coeffs())]).monic(), m)
           for f, m in factors]
    return sorted(out, key=lambda fm: (fm[0].degree, tuple(str(c) for c in fm[0].coeffs)))


@st.composite
def factored_products(draw):
    """A nonzero Fraction scalar times 1-3 small polynomials of degree 1-4,
    each raised to a multiplicity 1-3."""
    p = P(draw(SMALL_QQ.filter(bool)))
    for _ in range(draw(st.integers(1, 3))):
        low = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
        fac = P(*low, draw(st.integers(-3, 3).filter(bool)))
        p = p * poly_pow(fac, draw(st.integers(1, 3)))
    assume(p.degree <= MAX_FACTOR_DEGREE)
    return p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(factored_products())
def test_factor_matches_sympy(p):
    assert factor_over(p) == _sympy_factors(p)


# The QQ kernels against sympy: integer pseudo-division, primitive gcds and
# the integer reduction of RatFunc and ratfunc_sum.

X = sympy.Symbol("x")
QQ_COEFF = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
# zero, constants and fractional or negative leading coefficients included
ANY_POLY = st.lists(QQ_COEFF, max_size=5).map(lambda cs: P(*cs))
NONZERO_POLY = ANY_POLY.filter(lambda p: not p.is_zero())
FACTOR_POOL = [P(-1, 1), P(Fraction(1, 2), 1), P(3, 0, 2), P(Fraction(-2, 3), Fraction(5, 2))]
KERNEL_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _sym(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0],
                      X, domain="QQ")


def _from_sym(sp):
    return P(*[Fraction(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())])


def _sympy_reduced(num, den):
    """sympy's num / den in lowest terms, as Polys with a monic den."""
    c, n, d = num.cancel(den)
    return _from_sym(n.mul_ground(sympy.Rational(c) / d.LC())), _from_sym(d.monic())


@st.composite
def poly_pairs(draw):
    """Two polynomials, either may be zero or constant, times one common
    nonzero factor (of degree 0 to 4)."""
    shared = draw(NONZERO_POLY)
    return draw(ANY_POLY) * shared, draw(ANY_POLY) * shared


@KERNEL_SETTINGS
@given(poly_pairs())
def test_divrem_matches_sympy(ab):
    a, b = ab
    assume(not b.is_zero())
    q, r = a.divrem(b)
    assert q * b + r == a and r.degree < b.degree
    sq, sr = sympy.div(_sym(a), _sym(b))
    assert (q, r) == (_from_sym(sq), _from_sym(sr))


@KERNEL_SETTINGS
@given(poly_pairs())
def test_gcd_matches_sympy(ab):
    a, b = ab
    g = a.gcd(b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
    else:
        assert g.leading() == 1 and g == _from_sym(sympy.gcd(_sym(a), _sym(b)))


@KERNEL_SETTINGS
@given(poly_pairs())
def test_ratfunc_reduces_like_sympy(ab):
    a, b = ab
    assume(not b.is_zero())
    f = RatFunc(a, b)
    assert (f.num, f.den) == _sympy_reduced(_sym(a), _sym(b)) and f.den.leading() == 1


@st.composite
def ratfunc_terms(draw):
    """1-6 (c, num, den) terms; the denominators are constants times products
    of a few fixed factors, so they repeat and share factors, and c may be 0."""
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        den = P(draw(QQ_COEFF.filter(bool)))
        for fac in draw(st.lists(st.sampled_from(FACTOR_POOL), max_size=3)):
            den = den * fac
        terms.append((draw(QQ_COEFF), draw(ANY_POLY), den))
    return terms


@KERNEL_SETTINGS
@given(ratfunc_terms())
def test_ratfunc_sum_reduces_like_sympy(terms):
    num, den = _sym(P()), _sym(P(1))
    for c, n, d in terms:
        num, den = num * _sym(d) + _sym(n * c) * den, den * _sym(d)
    f = ratfunc_sum(terms)
    assert (f.num, f.den) == _sympy_reduced(num, den) and f.den.leading() == 1


# ratfunc_of_fractions against the sum of its terms in the RatFunc algebra

_FRACTION_PLACES = [INF, Fraction(0), Fraction(-1), Fraction(2, 3), Fraction(5)]


@KERNEL_SETTINGS
@given(terms=st.dictionaries(st.tuples(st.sampled_from(_FRACTION_PLACES), st.integers(0, 5)),
                             st.one_of(st.integers(-3, 3), st.fractions(-4, 4, max_denominator=6)),
                             max_size=8),
       den=st.integers(1, 12))
def test_ratfunc_of_fractions_matches_the_ratfunc_sum(terms, den):
    # c / (x - p)^k, c x^k at INF; a finite place carries k >= 1
    terms = {(p, k): c for (p, k), c in terms.items() if p is INF or k}
    want = RatFunc.const(0)
    for (p, k), c in terms.items():
        power = poly_pow(P(0, 1) if p is INF else P(-p, 1), k)
        want = want + (RatFunc(power) if p is INF else RatFunc(P(1), power)) * Fraction(c)
    got = _reduced(ratfunc_of_fractions(terms, den))
    assert got == want * Fraction(1, den)
    # the denominator is prod (x - p)^D_p, D_p the largest k with c != 0
    tops = {}
    for (p, k), c in terms.items():
        if c and p is not INF:
            tops[p] = max(tops.get(p, 0), k)
    assert got.den.degree == sum(tops.values())


# RatFunc.compose against the Horner evaluation in the RatFunc algebra it
# replaced

SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def small_ratfuncs(draw):
    """A small RatFunc over QQ from a num and a den that may share one factor
    of FACTOR_POOL, so that its reduction has a gcd to divide out."""
    num = Poly(draw(st.lists(SMALL, max_size=4)))
    den = Poly(draw(st.lists(SMALL, min_size=1, max_size=4)))
    common = draw(st.sampled_from([P(1)] + FACTOR_POOL))
    return RatFunc(num * common, (den if not den.is_zero() else Poly.const(1)) * common)


def _horner_compose(f, g):
    out = f.num(g) / f.den(g)
    # a constant f evaluates to a Fraction
    return out if isinstance(out, RatFunc) else RatFunc.const(out)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_ratfuncs(), small_ratfuncs())
def test_compose_matches_horner(f, g):
    try:
        want = _horner_compose(f, g)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.compose(g)
        return
    got = f.compose(g)
    assert got == want
    assert got.den.leading() == 1


def _fraction_horner(p, v):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(SMALL, max_size=6),
       st.one_of(st.integers(-50, 50), st.fractions(min_value=-50, max_value=50, max_denominator=40)))
def test_call_matches_a_fraction_horner(coeffs, v):
    # the int homogenized Horner at p / q; the draws include the zero and
    # the constant polynomials (lists of length 0 and 1, or trailing zeros)
    p = Poly(coeffs)
    got = p(v)
    assert type(got) is Fraction and got == _fraction_horner(p, v)
    assert p(Fraction(v)) == got
    assert Poly([])(v) == 0 and Poly([Fraction(-5, 3)])(v) == Fraction(-5, 3)


def test_call_at_a_pole_raises_and_other_arguments_stay_generic():
    f = RatFunc(P(1, 1), P(Fraction(-1, 3), 1))
    with pytest.raises(ZeroDivisionError):
        f(Fraction(1, 3))
    assert f(Fraction(2, 3)) == Fraction(5, 3) / Fraction(1, 3)
    # a non-rational argument takes the generic steps: an element of
    # QQ(sqrt 2) and a RatFunc
    F = QuadExtField(2)
    s = F.gen
    got = P(1, Fraction(1, 2), 3)(s)
    assert (got.a, got.b) == (Fraction(7), Fraction(1, 2))
    assert P(1, 0, 1)(RatFunc.x() + RatFunc.const(1)) == RatFunc(P(2, 2, 1))


# The one QQ layout: every result of the polynomial algebra holds int
# numerators over one positive denominator, reduced, with no trailing zero,
# and a RatFunc a coprime num over a monic den.

def _layout(p):
    assert isinstance(p, Poly) and type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    assert gcd(p.den, *p.nums) == 1 and (not p.nums or p.nums[-1])
    return p


def _reduced(f):
    assert isinstance(f, RatFunc)
    _layout(f.num)
    assert _layout(f.den).leading() == 1 and f.num.gcd(f.den) == P(1)
    return f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_ratfuncs(), small_ratfuncs(), SMALL, st.integers(-4, 4))
def test_every_operation_keeps_the_layout(f, g, q, k):
    a, b = f.num * f.den, g.num
    polys = [a + b, a - b, -a, a * b, a * k, k * a, a * q, q * a,
             a.gcd(b), b.gcd(a), a.monic(), a.derivative()]
    if not b.is_zero():
        polys += a.divrem(b)
    for p in polys:
        _layout(p)
    assert _layout((a * a).sqrt()) in (a, -a)
    funcs = [f + g, f - g, -f, f * g, f * q, k * f, f.derivative(),
             ratfunc_sum([(q, f.num, f.den), (k, g.num, g.den)])]
    assert _reduced((f * f).sqrt()) in (f, -f)
    if not g.is_zero():
        funcs.append(f / g)
    try:
        funcs.append(f.compose(g))
    except ZeroDivisionError:
        pass
    for h in funcs:
        _reduced(h)
    # the same value from Fractions and from scaled ints: equal, alike hashes
    m = k or 3
    for p in (a, b, f.den):
        scaled = Poly([c * m for c in p.nums]) * Fraction(1, p.den * m)
        assert scaled == p == Poly(p.coeffs) and hash(scaled) == hash(p)
    scaled = RatFunc(Poly([c * m for c in f.num.nums]), Poly([c * m for c in f.den.nums]))
    scaled = scaled * Fraction(f.den.den, f.num.den)
    assert scaled == f and hash(scaled) == hash(f)
