import random
from fractions import Fraction

import pytest

from quantcurve.algebra import HBAR_FIELD, QQ, FractionField, QuadExtElement, QuadExtField, RatFunc


def towers():
    qq = QQ
    qsqrt3 = QuadExtField(QQ, 3)
    qh = HBAR_FIELD
    h = HBAR_FIELD.gen
    qh_sqrt = QuadExtField(HBAR_FIELD, (h - 1) * (h - 3))
    return [("QQ", qq), ("QQ(sqrt3)", qsqrt3), ("QQ(h)", qh), ("QQ(h)(sqrt p)", qh_sqrt)]


def sample(field, rng, name, small=False):
    if name == "QQ":
        return Fraction(rng.randint(-20, 20), rng.randint(1, 9))
    if name == "QQ(sqrt3)":
        return field.make(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    if name == "QQ(h)":
        width = 2 if small else 3
        num = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, width))]
        den = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, width))]
        if all(c == 0 for c in den):
            den = [Fraction(1)]
        if all(c == 0 for c in num):
            num = [Fraction(1)]
        return field.of(RatFunc.from_coeffs(QQ, num, den))
    base = field.base
    a = sample(base, rng, "QQ(h)", small=True)
    b = sample(base, rng, "QQ(h)", small=True)
    from quantcurve.algebra import QuadExtElement

    return QuadExtElement(field, a, b)


@pytest.mark.parametrize("name,field", towers())
def test_field_axioms_randomized(name, field):
    rng = random.Random(hash(name) & 0xFFFF)
    one = field.one()
    zero = field.zero()
    for i in range(1000):
        a = sample(field, rng, name)
        b = sample(field, rng, name)
        c = sample(field, rng, name)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a - a == zero
        if not field.is_zero(b):
            assert field.is_zero(a / b * b - a)


def test_square_extension_rejected():
    with pytest.raises(ValueError):
        QuadExtField(QQ, 4)
    with pytest.raises(ValueError):
        QuadExtField(QQ, Fraction(9, 16))
    with pytest.raises(ValueError):
        QuadExtField(QQ, 0)
    F = FractionField(QQ, "h")
    h = F.gen
    with pytest.raises(ValueError):
        QuadExtField(F, h * h)


def test_sqrt_detection():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    E = QuadExtField(QQ, 3)
    r = E.sqrt(E.of(12))
    assert r is not None and r * r == E.of(12)
    assert E.sqrt(E.of(2)) is None
    F = HBAR_FIELD
    h = F.gen
    sq = (h + 1) * (h + 1) / (h * h)
    r = F.sqrt(sq)
    assert r is not None and r * r == sq
    assert F.sqrt(h) is None


def test_quadext_representation():
    E = QuadExtField(QQ, 3)
    s = E.gen
    x = (E.of(2) + s) * (E.of(2) - s)
    assert x == E.of(1)
    assert E.to_str(s) == "[0,1]"


def test_reverse_operator_coercion():
    E = QuadExtField(QQ, 5)
    s = E.gen
    assert 1 - s == E.of(1) - s
    assert 2 / (E.of(1) + s) == E.of(2) / (E.of(1) + s)
    assert (3 * s) == (s * 3)
    assert 1 + s == s + 1


def test_equal_elements_hash_alike():
    E = QuadExtField(QQ, 3)
    assert E.of(3) == 3 and E.of(3) in {3}
    assert E.of(Fraction(1, 2)) in {Fraction(1, 2)}
    assert E.gen in {E.gen} and E.gen + 1 not in {1}
    h = HBAR_FIELD.gen
    assert HBAR_FIELD.of(3) in {3} and HBAR_FIELD.of(0) in {0}
    assert h * h / h in {h}
    G = QuadExtField(HBAR_FIELD, h)
    assert G.of(3) == 3 and G.of(3) in {3}


def test_tower_scalar_products_match_coercion():
    # in QQ(sqrt 2)(sqrt 3) outer and inner elements share a type, so a base
    # scalar must be told apart from an own-field element before any fast path
    inner = QuadExtField(QQ, 2)
    outer = QuadExtField(inner, 3)
    x = outer.make(inner.make(1, 2), inner.make(Fraction(-1, 3), 5))

    def product(p, q):
        return QuadExtElement(outer, p.a * q.a + outer.d * p.b * q.b, p.a * q.b + p.b * q.a)

    for y in [outer.make(inner.make(2, -1), inner.make(Fraction(1, 2), 1)),
              inner.make(Fraction(3, 4), -2), Fraction(-5, 7), 3]:
        o = outer.of(y)
        assert x * y == product(x, o)
        assert x / y == product(x, o.inverse())
        # the scalar on the left: an inner element hands over to the outer
        # element's reflected operator
        assert y * x == product(o, x)
        assert y / x == product(o, x.inverse())
        assert y + x == QuadExtElement(outer, o.a + x.a, o.b + x.b)
        assert y - x == QuadExtElement(outer, o.a - x.a, o.b - x.b)
        assert y == o and o == y and y != x
    # one more storey: QQ(sqrt 2) elements on the left of QQ(sqrt 2)(sqrt 3)(sqrt 5)
    top = QuadExtField(outer, 5)
    z, y = top.make(x, outer.of(2)), inner.make(1, 1)
    assert y * z == top.of(y) * z and y - z == top.of(y) - z and y / z == top.of(y) / z
    with pytest.raises(TypeError):
        inner.gen * QuadExtField(QQ, 3).gen
