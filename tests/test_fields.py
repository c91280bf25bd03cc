import random
from fractions import Fraction

import pytest

from quantcurve.algebra import HBAR_FIELD, QQ, QuadExtField, RatFunc


def fields():
    return [("QQ", QQ), ("QQ(sqrt3)", QuadExtField(3)), ("QQ(h)", HBAR_FIELD)]


def sample(field, rng, name):
    if name == "QQ":
        return Fraction(rng.randint(-20, 20), rng.randint(1, 9))
    if name == "QQ(sqrt3)":
        return (field.of(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                + field.gen * Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    num = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
    den = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
    if all(c == 0 for c in den):
        den = [Fraction(1)]
    if all(c == 0 for c in num):
        num = [Fraction(1)]
    return field.of(RatFunc.from_coeffs(num, den))


@pytest.mark.parametrize("name,field", fields())
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
        QuadExtField(4)
    with pytest.raises(ValueError):
        QuadExtField(Fraction(9, 16))
    with pytest.raises(ValueError):
        QuadExtField(0)
    # the extension is QQ(sqrt d) only: nothing is adjoined to QQ(h)
    with pytest.raises(TypeError):
        QuadExtField(HBAR_FIELD.gen)


def test_sqrt_detection():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    E = QuadExtField(3)
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
    E = QuadExtField(3)
    s = E.gen
    x = (E.of(2) + s) * (E.of(2) - s)
    assert x == E.of(1)
    assert E.to_str(s) == "[0,1]"


def test_reverse_operator_coercion():
    E = QuadExtField(5)
    s = E.gen
    assert 1 - s == E.of(1) - s
    assert 2 / (E.of(1) + s) == E.of(2) / (E.of(1) + s)
    assert (3 * s) == (s * 3)
    assert 1 + s == s + 1
    # elements of two different extensions, or of QQ(h), do not mix
    for other in (QuadExtField(3).gen, HBAR_FIELD.gen):
        for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q,
                   lambda p, q: p / q):
            with pytest.raises(TypeError):
                op(s, other)
            with pytest.raises(TypeError):
                op(other, s)


def test_equal_elements_hash_alike():
    E = QuadExtField(3)
    assert E.of(3) == 3 and E.of(3) in {3}
    assert E.of(Fraction(1, 2)) in {Fraction(1, 2)}
    assert E.gen in {E.gen} and E.gen + 1 not in {1}
    h = HBAR_FIELD.gen
    assert HBAR_FIELD.of(3) in {3} and HBAR_FIELD.of(0) in {0}
    assert h * h / h in {h}
    # a string is no value: it neither equals an element nor coerces into QQ
    half = HBAR_FIELD.of(Fraction(1, 2))
    assert half != "1/2" and half not in {"1/2"} and HBAR_FIELD.one() != "x"
    for v in ("1/2", "x"):
        with pytest.raises(TypeError, match="into QQ"):
            QQ.of(v)


def test_one_field_per_d():
    # two QuadExtField(d) calls give one field: their elements compare, add
    # and hash as one field's, and equality stays transitive through QQ
    E1, E2 = QuadExtField(3), QuadExtField(Fraction(6, 2))
    x, y = E1.of(Fraction(1, 2)), E2.of(Fraction(1, 2))
    assert x == Fraction(1, 2) == y and x == y and hash(x) == hash(y)
    assert x + y == E1.one() and E1.gen - E2.gen == 0
    s1, s2 = E1.gen + 1, E2.gen + 1
    assert s1 == s2 and hash(s1) == hash(s2) and len({s1, s2}) == 1
    # the live field comes back as it was built
    assert E2 is E1 and E2.gen is E1.gen and E2.nil is E1.nil
    assert QuadExtField(3) != QuadExtField(5) and E1.gen != QuadExtField(5).gen


def test_field_cache_holds_only_live_fields():
    import gc

    from quantcurve.algebra import fields as fields_module

    d = Fraction(7919, 7)
    E = QuadExtField(d)
    assert fields_module._QUAD_FIELDS[d] is E
    del E
    gc.collect()
    assert d not in fields_module._QUAD_FIELDS
