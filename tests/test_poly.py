import random
from fractions import Fraction

import pytest

from quantcurve.algebra import (
    INF,
    Poly,
    QQ,
    QuadExtField,
    RatFunc,
    factor_rational_poly,
)


def P(*coeffs):
    return Poly(QQ, list(coeffs))


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
    facs = factor_rational_poly(P(-1, 0, 1))
    assert [(f.to_str(), m) for f, m in facs] == [("-1 + (1)*x", 1), ("1 + (1)*x", 1)]
    quartic = P(-1, 0, 1, 0, 1)
    facs = factor_rational_poly(quartic)
    assert len(facs) == 1 and facs[0][0].degree == 4 and facs[0][1] == 1


def test_equal_polys_and_ratfuncs_hash_alike():
    K = QuadExtField(QQ, 2)
    p, q = P(1, 2), Poly(K, [1, 2])
    assert p == q and hash(p) == hash(q) and q in {p}
    r, s = RatFunc(p, P(1, 1)), RatFunc(q, Poly(K, [1, 1]))
    assert r == s and hash(r) == hash(s) and s in {r}
