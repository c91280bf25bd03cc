import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quantcurve.algebra import (
    HBAR_FIELD,
    INF,
    LogSeries,
    Poly,
    QQ,
    QuadExtField,
    RatFunc,
    TruncSeries,
    expand_ratfunc,
    linear_forms_ints,
    monomial_sum,
    ratfunc_at_series,
)


def rf(num, den=(1,)):
    return RatFunc.from_coeffs(num, den)


def test_expand_at_infinity_geometric():
    s = expand_ratfunc(rf([1], [1, 1]), INF, 4)
    assert [s.coefficient(k) for k in range(5)] == [0, 1, -1, 1, -1]


def test_expand_at_zero():
    s = expand_ratfunc(rf([0, 1]), Fraction(0), 4)
    assert s.val == 1 and s.coefficient(1) == 1


def test_expand_gauss_discriminant_at_infinity():
    # (3x^2 - 3x + 1)/(4x^2(x-1)^2) decays to second order at infinity;
    # as a weight-2 section that is a double pole there
    f = rf([1, -3, 3], [0, 0, 4, -8, 4])
    s = expand_ratfunc(f, INF, 6)
    assert s.val == 2 and s.coefficient(2) == Fraction(3, 4)
    from quantcurve.spectral import KSection

    assert KSection(f, 2).order_at(INF) == -2


def test_sqrt_binomial():
    s = TruncSeries(QQ, 0, [1, 1], 6)
    r = s.sqrt(1)
    assert r.coefficient(0) == 1
    assert r.coefficient(1) == Fraction(1, 2)
    assert r.coefficient(2) == Fraction(-1, 8)
    assert (r * r).eq_through(s)


def test_sqrt_quadratic_series():
    s = expand_ratfunc(rf([1, -3, 3]), Fraction(0), 5)
    r = s.sqrt(1)
    assert r.coefficient(0) == 1 and r.coefficient(1) == Fraction(-3, 2)
    assert r.coefficient(2) == Fraction(3, 8)
    assert (r * r).eq_through(s)


def test_sqrt_of_square_monomial():
    s = TruncSeries(QQ, 2, [1], 6)
    assert s.sqrt(1).eq_through(TruncSeries(QQ, 1, [1], 5))


def test_sqrt_odd_valuation_rejected():
    with pytest.raises(ValueError):
        TruncSeries(QQ, 1, [1], 6).sqrt(1)


def test_sqrt_wrong_root_rejected():
    with pytest.raises(ValueError):
        TruncSeries(QQ, 0, [4, 1], 6).sqrt(3)


def test_log1_examples():
    t = TruncSeries.uniformizer(QQ, 6)
    one_plus = t + 1
    lg = one_plus.log1()
    assert [lg.coefficient(k) for k in range(1, 5)] == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]
    # log(1 - t^2) = -t^2 - t^4/2 - t^6/3
    lg2 = (1 - t * t).log1()
    assert dict(lg2.items()) == {2: -1, 4: Fraction(-1, 2), 6: Fraction(-1, 3)}


def test_log1_domain_error():
    with pytest.raises(ValueError):
        TruncSeries(QQ, 0, [2, 1], 4).log1()


def test_reversion_catalan():
    x = expand_ratfunc(rf([1, 0, 1], [0, 1]), Fraction(0), 9)  # z + 1/z at z = 0
    z = x.reversion()
    # z(1/xi) = xi + xi^3 + 2 xi^5 + 5 xi^7 + ... with Catalan numbers
    assert [z.coefficient(k) for k in (1, 3, 5, 7, 9)] == [1, 1, 2, 5, 14]
    assert all(z.coefficient(k) == 0 for k in (2, 4, 6, 8))


def test_reversion_identity_and_scaling():
    t = TruncSeries.uniformizer(QQ, 8)
    assert t.reversion().eq_through(t)
    two_t = t * 2
    half = two_t.reversion()
    assert half.coefficient(1) == Fraction(1, 2)
    assert all(half.coefficient(k) == 0 for k in range(2, 8))


def test_reversion_roundtrip_random():
    rng = random.Random(5)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(1, 5))] + [
            Fraction(rng.randint(-4, 4)) for _ in range(6)]
        s = TruncSeries(QQ, 1, coeffs, 7)
        g = s.reversion()
        back = s.compose(g)
        assert back.eq_through(TruncSeries.uniformizer(QQ, back.order))


def test_reversion_bad_valuation():
    with pytest.raises(ValueError):
        TruncSeries(QQ, 2, [1], 6).reversion()


def test_order_tracking_never_pads():
    a = TruncSeries(QQ, 0, [1, 1], 3)
    b = TruncSeries(QQ, 0, [1, 1, 1, 1, 1, 1], 5)
    assert (a * b).order == 3
    assert (a + b).order == 3
    assert a.inverse().order == 3


def test_coefficient_beyond_order_raises():
    s = TruncSeries(QQ, 0, [1], 3)
    with pytest.raises(ValueError):
        s.coefficient(4)


def test_log_series_arithmetic():
    body = TruncSeries(QQ, 1, [1], 5)
    a = LogSeries(Fraction(1, 4), body)
    assert a.has_log() and not LogSeries(0, body).has_log()
    # the log term is lam * log(tau^e): the chart is the LogSeries', not the body's
    assert repr(a) == "(1/4)*log(t) + (1)*t^1 + O(t^6)"
    assert repr(LogSeries(Fraction(1, 4), body, 2)) == "(1/4)*log(t^2) + (1)*t^1 + O(t^6)"


def test_sqrt_random_property():
    rng = random.Random(41)
    for _ in range(40):
        val = 2 * rng.randint(-2, 2)
        lead = Fraction(rng.randint(1, 6)) ** 2
        coeffs = [lead] + [Fraction(rng.randint(-5, 5)) for _ in range(6)]
        s = TruncSeries(QQ, val, coeffs, val + 6)
        r = s.sqrt()
        assert (r * r).eq_through(s)


def test_log1_random_identities():
    rng = random.Random(42)
    for _ in range(40):
        u, v = (TruncSeries(QQ, 0, [Fraction(1)] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                                    for _ in range(5)], 5) for _ in range(2))
        # (log u)' u = u' and log(u v) = log u + log v
        assert (u.log1().derivative() * u).eq_through(u.derivative())
        assert (u * v).log1().eq_through(u.log1() + v.log1())


def test_truncate_below_valuation_is_zero():
    s = TruncSeries(QQ, 3, [1, 2, 3, 4, 5], 7).truncate(0)
    assert s.is_zero() and s.val == 1 and s.order == 0


# expand_ratfunc against the division it replaced: both local expansions
# padded by `shift`, divided through TruncSeries.inverse, then truncated

SMALL_QQ = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _expand_poly(p, place, order):
    """Expansion of a polynomial at a finite point or at INF (in w = 1/x),
    the reference that the two tests below divide and recur on."""
    f = p.field
    if place is INF:
        return TruncSeries(f, -p.degree, p.coeffs[::-1], order)
    # Taylor coefficients of p(c + u), by synthetic division in place
    cs = list(p.coeffs)
    c = f.of(place)
    if not f.is_zero(c):
        for i in range(len(cs) - 1):
            for k in range(len(cs) - 2, i - 1, -1):
                cs[k] = cs[k] + c * cs[k + 1]
    return TruncSeries(f, 0, cs, order)


def _division_reference(f, place, order, e, shift):
    if f.is_zero():
        return TruncSeries.zero(f.field, order * e)
    num = _expand_poly(f.num, place, order + shift)
    den = _expand_poly(f.den, place, order + shift)
    out = (num / den).truncate(order)
    return out.scale_exponents(e) if e != 1 else out


def _check_representation(s):
    """The invariant every TruncSeries keeps: over QQ int numerators over a
    positive den with gcd 1, over QQ(sqrt d) int pairs of the field over a
    positive den with gcd 1, over QQ(h) the elements over 1; no zero at
    either end, and the zero series at val = order + 1."""
    if s.field is QQ:
        assert type(s.den) is int and s.den > 0 and all(type(c) is int for c in s.nums)
        assert math.gcd(s.den, *s.nums) == 1
    elif isinstance(s.field, QuadExtField):
        assert type(s.den) is int and s.den > 0
        assert all(type(c) is s.field.num and type(c.a) is int and type(c.b) is int
                   for c in s.nums)
        assert math.gcd(s.den, *[c.a for c in s.nums], *[c.b for c in s.nums]) == 1
    else:
        assert s.den == 1 and all(s.field.of(c) is c for c in s.nums)
    assert not s.nums or (s.nums[0] and s.nums[-1])
    assert s.nums or s.val == s.order + 1
    assert s.val + len(s.nums) - 1 <= s.order


def _fields(s):
    _check_representation(s)
    return s.val, s.coeffs, s.order


@st.composite
def ratfunc_at_place(draw):
    num = Poly(draw(st.lists(SMALL_QQ, max_size=3)))
    den = Poly(draw(st.lists(SMALL_QQ, min_size=1, max_size=3)))
    if den.is_zero():
        den = Poly.const(1)
    where = draw(st.sampled_from(["inf", "zero", "num root", "den root"]))
    place = {"inf": INF, "zero": Fraction(0)}.get(where)
    if place is None:
        place = draw(SMALL_QQ)
        lin = Poly([-place, 1])
        for _ in range(draw(st.integers(1, 3))):
            if where == "num root":
                num = num * lin if not num.is_zero() else lin
            else:
                den = den * lin
    return RatFunc(num, den), place


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ratfunc_at_place(), st.integers(-2, 8), st.sampled_from([1, 2]))
def test_expand_ratfunc_matches_padded_division(fp, order, e):
    f, place = fp
    got = expand_ratfunc(f, place, order, e=e)
    n, d = f.num.degree, f.den.degree
    # padding by deg den more makes the division exact through `order`
    assert _fields(got) == _fields(_division_reference(f, place, order, e, n + 2 * d + 2))
    assert got.order == order * e
    # the old padding loses order at a pole of order >= 3 and agrees below it
    old = _division_reference(f, place, order, e, n + d + 2)
    assert _fields(got.truncate(old.order)) == _fields(old)


# expand_ratfunc's int quotient against the Fraction recurrence it replaced


def _fraction_recurrence(f, place, order):
    """(val, [Fraction]): q_k = (N_k - sum_i D_i q_{k-i}) / D_0 in Fractions
    over the local coefficients N of num and D of den."""
    num = _expand_poly(f.num, place, f.num.degree)
    den = _expand_poly(f.den, place, f.den.degree)
    n, d = num.coeffs, den.coeffs
    val, q = num.val - den.val, []
    for k in range(order - val + 1):
        acc = n[k] if k < len(n) else Fraction(0)
        for i in range(1, min(k, len(d) - 1) + 1):
            acc -= d[i] * q[k - i]
        q.append(acc / d[0])
    return val, q


@st.composite
def ratfunc_at_any_place(draw):
    num = Poly(draw(st.lists(SMALL_QQ, min_size=1, max_size=4)))
    den = Poly(draw(st.lists(SMALL_QQ, min_size=1, max_size=4)))
    if num.is_zero():
        num = Poly.const(1)
    if den.is_zero():
        den = Poly.const(1)
    where = draw(st.sampled_from(["inf", "zero", "random", "pole", "zero of num"]))
    place = {"inf": INF, "zero": Fraction(0)}.get(where)
    if place is None:
        place = draw(st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5)))
        lin = Poly([-place, 1])
        for _ in range(draw(st.integers(1, 3)) if where != "random" else 0):
            if where == "pole":
                den = den * lin
            else:
                num = num * lin
    return RatFunc(num, den), place


def _check_laurent_ints(f, place, order):
    got = expand_ratfunc(f, place, order)
    want_val, want = _fraction_recurrence(f, place, order)
    _check_representation(got)
    assert got.order == order and got.val == (want_val if want else order + 1)
    assert [got.coefficient(k) for k in range(want_val, order + 1)] == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ratfunc_at_any_place(), st.integers(-6, 12))
def test_laurent_ints_match_the_fraction_recurrence(fp, order):
    _check_laurent_ints(*fp, order)


@pytest.mark.parametrize("f, place, order", [
    (rf([1], [-1, 1]), Fraction(0), 6),                # D_0 = -1
    (rf([3], [-5, 0, 1]), Fraction(1), 6),             # D_0 = 1 - 5 < 0
    (rf([1], [4, -4, 1]), Fraction(2), 4),             # a double pole at the place
    (rf([0, 0, 0, 1], [2, 1]), Fraction(0), 1),        # order < val
    (rf([0, 0, 0, 1], [2, 1]), Fraction(0), 2),        # order = val - 1
    (rf([1], [0, 0, 1]), INF, 1),                      # order < val at INF
    (rf([1, 2, 1], [-3, 0, 7]), Fraction(-5, 3), 9),
])
def test_laurent_ints_edge_cases(f, place, order):
    _check_laurent_ints(f, place, order)


def test_laurent_ints_of_zero():
    s = expand_ratfunc(RatFunc.const(0), Fraction(1), 4)
    assert (s.val, s.den, s.nums, s.order) == (5, 1, [], 4)


# field.convolve, Poly.__mul__ and the Newton inverse against the schoolbook
# loop and the inverse recurrence they replaced

SQRT2 = QuadExtField(2)
# d with a denominator: the pairs' r is sqrt(num(d) den(d)), and a value's
# surd part carries den(d)
SQRT_M35 = QuadExtField(Fraction(-3, 5))
SQRT_83 = QuadExtField(Fraction(8, 3))
# d not squarefree, as `smooth` adjoins it at 0
SQRT_M4 = QuadExtField(-4)
MIXED_QQ = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


def _surds(E):
    return st.builds(lambda a, b: E.of(a) + E.gen * b, MIXED_QQ, MIXED_QQ)


KERNEL_ELEMENTS = {
    "QQ": MIXED_QQ,
    "QQ(sqrt 2)": _surds(SQRT2),
    "QQ(sqrt(-3/5))": _surds(SQRT_M35),
    "QQ(sqrt(8/3))": _surds(SQRT_83),
    "QQ(sqrt(-4))": _surds(SQRT_M4),
    "QQ(h)": st.builds(lambda a, b: HBAR_FIELD.of(a) + HBAR_FIELD.gen * b, SMALL_QQ, SMALL_QQ),
}
KERNEL_FIELDS = {"QQ": QQ, "QQ(sqrt 2)": SQRT2, "QQ(sqrt(-3/5))": SQRT_M35,
                 "QQ(sqrt(8/3))": SQRT_83, "QQ(sqrt(-4))": SQRT_M4, "QQ(h)": HBAR_FIELD}


def _schoolbook(field, a, b, n):
    out = [field.zero()] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] = out[i + j] + x * y
    return out


def _recurrence_inverse(s):
    f = s.field
    v = s.val
    unit = s.shift(-v)
    n = unit.order + 1
    a = [unit.coefficient(k) for k in range(n)]
    inv0 = f.one() / a[0]
    out = [inv0]
    for k in range(1, n):
        acc = f.zero()
        for j in range(1, k + 1):
            acc = acc + a[j] * out[k - j]
        out.append(-inv0 * acc)
    return TruncSeries(f, 0, out, unit.order).shift(-v)


def _recurrence_sqrt(s, root):
    f = s.field
    v = s.val
    unit = s.shift(-v)
    n = unit.order + 1
    a = [unit.coefficient(k) for k in range(n)]
    out = [f.zero()] * n
    out[0] = root
    twice = root + root
    for k in range(1, n):
        acc = a[k]
        for j in range(1, k):
            acc = acc - out[j] * out[k - j]
        out[k] = acc / twice
    return TruncSeries(f, 0, out, unit.order).shift(v // 2)


@st.composite
def coefficient_lists(draw, min_size=0):
    name = draw(st.sampled_from(sorted(KERNEL_FIELDS)))
    elem = KERNEL_ELEMENTS[name]
    a = draw(st.lists(elem, min_size=min_size, max_size=12))
    b = draw(st.lists(elem, max_size=12))
    return KERNEL_FIELDS[name], a, b


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coefficient_lists(), st.data())
def test_convolve_matches_schoolbook(fab, data):
    field, a, b = fab
    n = data.draw(st.integers(0, len(a) + len(b)))
    # the kernel takes each operand as the numerators of its split
    (da, A), (db, B) = field.split(a), field.split(b)
    got = [field.value(da * db, c) for c in field.convolve(A, B, n)]
    assert len(got) == n and got == _schoolbook(field, a, b, n)
    if field is QQ:  # polynomials are over QQ only
        prod = Poly(a) * Poly(b)
        assert prod == Poly(_schoolbook(field, a, b, max(0, len(a) + len(b) - 1)))


# QuadExtField.convolve multiplies only the nonzero halves of its operands

SURD_FIELDS = (SQRT2, SQRT_M35, SQRT_83, SQRT_M4)
OPERAND_KINDS = ("zero", "rational", "surd", "mixed")


@st.composite
def surd_operand(draw, kind):
    """(a, b) Fraction lists of one length for elements a + b sqrt(d) of a
    kind: all zero, all b = 0, all a = 0, or both parts nonzero somewhere."""
    n = draw(st.integers(0 if kind == "zero" else 1, 12))
    a = draw(st.lists(MIXED_QQ, min_size=n, max_size=n)) if kind in ("rational", "mixed") else [0] * n
    b = draw(st.lists(MIXED_QQ, min_size=n, max_size=n)) if kind in ("surd", "mixed") else [0] * n
    # a nonzero part where the kind has one
    if kind in ("rational", "mixed"):
        a[draw(st.integers(0, n - 1))] = draw(NONZERO_QQ)
    if kind in ("surd", "mixed"):
        b[draw(st.integers(0, n - 1))] = draw(NONZERO_QQ)
    return [Fraction(x) for x in a], [Fraction(y) for y in b]


def _surd_schoolbook(d, x, y, n):
    """The first n coefficients of the product, as Fraction pairs (a, b) of
    a + b sqrt(d)."""
    (xa, xb), (ya, yb) = x, y
    out = [[Fraction(0), Fraction(0)] for _ in range(n)]
    for i in range(len(xa)):
        for j in range(len(ya)):
            if i + j < n:
                out[i + j][0] += xa[i] * ya[j] + d * xb[i] * yb[j]
                out[i + j][1] += xa[i] * yb[j] + xb[i] * ya[j]
    return [tuple(p) for p in out]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(SURD_FIELDS), st.sampled_from(OPERAND_KINDS),
       st.sampled_from(OPERAND_KINDS), st.data())
def test_surd_convolve_matches_the_fraction_schoolbook(E, kx, ky, data):
    x, y = data.draw(surd_operand(kx)), data.draw(surd_operand(ky))
    n = data.draw(st.integers(0, len(x[0]) + len(y[0]) + 1))
    (dx, X), (dy, Y) = (E.split([E.of(a) + E.gen * b for a, b in zip(*ops)]) for ops in (x, y))
    got = [E.value(dx * dy, c) for c in E.convolve(X, Y, n)]
    assert [(c.a, c.b) for c in got] == _surd_schoolbook(E.d, x, y, n)


@pytest.mark.parametrize("kx, ky, calls", [
    ("rational", "rational", 1), ("surd", "surd", 1), ("rational", "surd", 1),
    ("rational", "mixed", 2), ("mixed", "surd", 2), ("mixed", "mixed", 3),
])
def test_surd_convolve_skips_the_zero_halves(kx, ky, calls, monkeypatch):
    # one int convolution per nonzero cross product, three for mixed x mixed
    import quantcurve.algebra.fields as fields_module

    calls_seen = []
    convolve = fields_module._int_convolve

    def counted(A, B, n):
        calls_seen.append(n)
        return convolve(A, B, n)

    monkeypatch.setattr(fields_module, "_int_convolve", counted)
    a, b = [Fraction(1), 0, Fraction(-2, 3), Fraction(5)], [Fraction(1, 2), Fraction(4), 0, Fraction(-1)]
    x, y = ((a if k != "surd" else [0] * 4, b if k != "rational" else [0] * 4) for k in (kx, ky))
    E = SQRT_83
    (dx, X), (dy, Y) = (E.split([E.of(p) + E.gen * q for p, q in zip(*ops)]) for ops in (x, y))
    got = [E.value(dx * dy, c) for c in E.convolve(X, Y, 6)]
    assert len(calls_seen) == calls
    assert [(c.a, c.b) for c in got] == _surd_schoolbook(E.d, x, y, 6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coefficient_lists(min_size=1), st.integers(-3, 3), st.integers(0, 4),
       st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12)))
def test_newton_inverse_matches_recurrence(fab, val, extra, lead):
    field, coeffs, _ = fab
    # over QQ(h) a non-constant leading coefficient gives coefficients of
    # growing degree in h, each reduced by polynomial gcds; a rational one
    # keeps both inverses fast
    if field.is_zero(coeffs[0]) or field is HBAR_FIELD:
        coeffs[0] = field.of(lead)
    s = TruncSeries(field, val, coeffs, val + len(coeffs) - 1 + extra)
    inv = s.inverse()
    assert _fields(inv) == _fields(_recurrence_inverse(s))
    prod = s * inv
    assert prod.order == s.order - s.val and (prod - 1).is_zero()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coefficient_lists(min_size=1), st.integers(-2, 2), st.integers(0, 4),
       st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12)))
def test_newton_sqrt_matches_recurrence(fab, half_val, extra, lead_root):
    field, coeffs, _ = fab
    # a drawn root over QQ and QQ(sqrt d); over QQ(h) a rational root and at
    # most 8 terms, for the reason given in the inverse test
    root = coeffs[0]
    if field is HBAR_FIELD:
        root, coeffs = field.of(lead_root), coeffs[:8]
    elif field.is_zero(root):
        root = field.of(lead_root)
    coeffs[0] = root * root
    val = 2 * half_val
    s = TruncSeries(field, val, coeffs, val + len(coeffs) - 1 + extra)
    for r in (root, -root):
        sq = s.sqrt(r)
        assert _fields(sq) == _fields(_recurrence_sqrt(s, r))
        assert sq.coefficient(half_val) == r and sq.order == s.order - half_val
        assert (sq * sq - s).is_zero()


# compose and reversion against the untrimmed Horner and the coefficient-by-
# coefficient reversion loop they replaced

def _untrimmed_horner(s, inner):
    f = s.field
    out = TruncSeries.zero(f, inner.order)
    for k in range(s.order, s.val - 1, -1):
        out = out * inner + s.coefficient(k)
    if s.val > 0:
        pw = TruncSeries.const(f, f.one(), inner.order)
        for _ in range(s.val):
            pw = pw * inner
        out = out * pw
    return out


def _compose_loop_reversion(s):
    f = s.field
    if s.val == -1:
        return _compose_loop_reversion(s.inverse())
    n = s.order
    c1 = s.coefficient(1)
    g = TruncSeries(f, 1, [f.one() / c1], n)
    for k in range(2, n + 1):
        fg = _untrimmed_horner(s, g)
        delta = fg.coefficient(k) if k <= fg.order else f.zero()
        g = g + TruncSeries(f, k, [-delta / c1], n)
    return g


def test_compose_claims_only_known_terms():
    # 1 + t + O(t^2) at t = s + O(s^11) is 1 + s + O(s^2), not O(s^11)
    got = TruncSeries(QQ, 0, [1, 1], 1).compose(TruncSeries.uniformizer(QQ, 10))
    assert got.order == 1 and _fields(got) == _fields(TruncSeries(QQ, 0, [1, 1], 1))
    with pytest.raises(ValueError):
        TruncSeries(QQ, -1, [1, 1], 1).compose(TruncSeries.uniformizer(QQ, 10))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coefficient_lists(min_size=1), st.integers(0, 3), st.integers(0, 4),
       st.integers(1, 3), st.integers(0, 8))
def test_compose_order_is_what_the_operands_fix(fab, val, extra, inner_val, inner_extra):
    field, a, b = fab
    if field is HBAR_FIELD:  # short, as in the reversion test below
        a, b = a[:4], b[:4]
    b = b or [field.one()]
    s = TruncSeries(field, val, a, val + len(a) - 1 + extra)
    inner = TruncSeries(field, inner_val, b, inner_val + len(b) - 1 + inner_extra)
    got = s.compose(inner)
    bound = min(inner.order, (s.order + 1) * inner.val - 1)
    assert got.order == bound
    assert _fields(got) == _fields(_untrimmed_horner(s, inner).truncate(bound))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coefficient_lists(min_size=1), st.sampled_from([1, -1]),
       st.integers(0, 4), st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12)))
def test_newton_reversion_matches_compose_loop(fab, val, extra, lead):
    field, coeffs, _ = fab
    # over QQ(h) a rational leading coefficient and order at most
    # val + 4, for the reason given in the inverse test: the reference loop
    # takes 4 s at order 12 over QQ(h)
    if field is HBAR_FIELD:
        coeffs, extra = [field.of(lead)] + coeffs[1:4], min(extra, 1)
    elif field.is_zero(coeffs[0]):
        coeffs[0] = field.of(lead)
    s = TruncSeries(field, val, coeffs, val + len(coeffs) - 1 + extra)
    g = s.reversion()
    assert _fields(g) == _fields(_compose_loop_reversion(s))
    assert g.val == 1
    inner = s if val == 1 else s.inverse()
    back = inner.compose(g)
    assert back.order == g.order
    assert _fields(back) == _fields(TruncSeries.uniformizer(field, g.order))


# the Horner kernel against the TruncSeries loops it replaced


def _horner_loop(coeffs, s, order):
    out = TruncSeries.zero(s.field, order)
    for c in reversed(coeffs):
        out = out * s + s.field.of(c)
    return out


def _truncseries_at(f, s):
    lift = max(0, -s.val)
    num = _horner_loop(f.num.coeffs, s, s.order - lift * f.num.degree)
    den = _horner_loop(f.den.coeffs, s, s.order - lift * f.den.degree)
    return num / den


def _compose_loop(s, inner):
    v = inner.val
    R = min(inner.order, (s.order + 1) * v - 1)
    top = min(s.order, R // v)
    return _horner_loop([s.coefficient(k) for k in range(top + 1)], inner, R - (top + 1) * v)


NONZERO_QQ = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))


@st.composite
def qq_truncseries(draw, vals, fields=("QQ",)):
    # drawn zeros lead, trail or fill the list; the valuation moves past the
    # leading ones, and an all-zero list is the zero series.  With more than
    # one name of KERNEL_FIELDS in ``fields`` the field is drawn first
    name = draw(st.sampled_from(fields)) if len(fields) > 1 else fields[0]
    val = draw(vals)
    elements = MIXED_QQ | NONZERO_QQ if name == "QQ" else KERNEL_ELEMENTS[name]
    coeffs = draw(st.lists(elements, min_size=1, max_size=10))
    return TruncSeries(KERNEL_FIELDS[name], val, coeffs, val + len(coeffs) - 1 + draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(qq_truncseries(st.integers(-3, 3), tuple(sorted(KERNEL_FIELDS))))
def test_integrate_matches_fraction_division(s):
    # c_k / (k + 1) on ints over one lcm, against the Fraction division;
    # the coefficient of tau^-1 is the log term
    f = s.field
    logc, body = s.integrate()
    _check_representation(body)
    assert body.order == s.order + 1
    assert logc == (s.coefficient(-1) if s.val <= -1 <= s.order else f.zero())
    for k in range(s.val, s.order + 1):
        want = f.zero() if k == -1 else s.coefficient(k) / (k + 1)
        assert body.coefficient(k + 1) == want


QQ_RATFUNCS = st.builds(
    lambda num, den: RatFunc(Poly(num), Poly(den) if any(den) else Poly.const(1)),
    st.lists(SMALL_QQ, max_size=4), st.lists(SMALL_QQ, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(QQ_RATFUNCS, qq_truncseries(st.integers(-2, 3)))
def test_ratfunc_at_series_matches_the_truncseries_loop(f, s):
    try:
        want = _truncseries_at(f, s)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            ratfunc_at_series(f, s)
        return
    assert _fields(ratfunc_at_series(f, s)) == _fields(want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(qq_truncseries(st.integers(0, 3)), qq_truncseries(st.integers(1, 3)))
def test_qq_compose_matches_the_truncseries_loop(s, inner):
    assert _fields(s.compose(inner)) == _fields(_compose_loop(s, inner))


def test_ratfunc_at_series_takes_qq_only():
    with pytest.raises(ValueError, match="over QQ"):
        ratfunc_at_series(rf([1], [1, 1]), TruncSeries.uniformizer(SQRT2, 4))


@st.composite
def monomial_terms(draw):
    # factors of mixed valuations, some zero; the monomials share prefixes
    # of every length, in any order of their keys
    factors = [draw(qq_truncseries(st.integers(-2, 3))) for _ in range(draw(st.integers(1, 4)))]
    monomial = st.lists(st.integers(0, len(factors) - 1), min_size=1, max_size=4).map(tuple)
    terms = draw(st.lists(st.tuples(monomial, NONZERO_QQ), max_size=8, unique_by=lambda t: t[0]))
    return dict(enumerate(factors)), terms, draw(st.integers(-1, 12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(monomial_terms())
# leading terms that cancel, partly and wholly
@example(({0: TruncSeries(QQ, 0, [1, 2, 0], 2), 1: TruncSeries(QQ, 0, [1, 3, 5], 2)},
          [((0,), Fraction(1)), ((1,), Fraction(-1))], 2))
@example(({0: TruncSeries(QQ, 1, [Fraction(1, 2), 1], 2), 1: TruncSeries(QQ, 1, [Fraction(1, 2), 1], 2)},
          [((0, 1), Fraction(1)), ((1, 1), Fraction(-1))], 6))
def test_monomial_sum_matches_the_truncseries_sum(draw):
    factors, terms, order = draw
    want = TruncSeries.zero(QQ, order)
    for M, c in terms:
        term = TruncSeries.const(QQ, c, order)
        for i in M:
            term = term * factors[i]
        want = want + term
    got = monomial_sum([(M, c.numerator, c.denominator) for M, c in terms], factors, order)
    assert _fields(got) == _fields(want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(qq_truncseries(st.integers(-2, 3), tuple(sorted(KERNEL_FIELDS))), st.data())
def test_every_operation_keeps_the_representation(s, data):
    # expand_ratfunc, ratfunc_at_series and monomial_sum, and the results of
    # the tests above, go through _fields, which checks the same invariant
    f = s.field
    name = next(n for n, field in KERNEL_FIELDS.items() if field is f)
    if f is HBAR_FIELD:  # short, as in the inverse test above
        s = s.truncate(s.val + 3)
    t = data.draw(qq_truncseries(st.integers(1, 3), (name,)))
    k, q = data.draw(st.integers(-3, 3)), data.draw(NONZERO_QQ)
    u = s.shift(max(0, -s.val))  # a power series
    out = [s + t, s - t, -s, s * k, k * s, s * q, s * t, s.derivative(), s.integrate()[1],
           s.shift(k), s.truncate(data.draw(st.integers(-3, 12))), u.compose(t),
           (TruncSeries.uniformizer(f, t.order) + t.shift(1)).reversion()]
    if not s.is_zero():
        out += [s.inverse(), (s * s).sqrt(s.coefficient(s.val))]
    if f is QQ:
        place = data.draw(st.sampled_from([INF, Fraction(0), q]))
        forms = [(q, 1, 2), (1, -q, -1), (0, q, 3)]
        out += [linear_forms_ints(forms, place, data.draw(st.integers(-3, 8))),
                monomial_sum([((0, 1), 1, 3), ((1,), -2, 1)], {0: s, 1: t}, 8)]
    if isinstance(f, QuadExtField):
        # a surd scalar multiplies pairs by pairs; the QQ series moves over
        # on its numerators
        c = f.gen * q + k
        out.append(s * c)
        assert (s * c).coeffs == [x * c for x in s.coeffs]
        qs = data.draw(qq_truncseries(st.integers(-2, 3)))
        assert _fields(qs.over(f)) == _fields(TruncSeries(f, qs.val, qs.coeffs, qs.order))
    for r in out:
        _check_representation(r)
