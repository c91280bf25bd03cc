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
    partial_fractions,
    residue_at,
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


def rf(num, den=(1,)):
    return RatFunc.from_coeffs(QQ, num, den)


def test_partial_fractions_examples():
    # 1/(t^2 - 1) = (1/2)/(t-1) - (1/2)/(t+1)
    poly, parts = partial_fractions(rf([1], [-1, 0, 1]))
    assert poly.is_zero()
    got = {fac.to_str(): terms for fac, terms in parts}
    assert got["-1 + (1)*x"] == [(1, P(Fraction(1, 2)))]
    assert got["1 + (1)*x"] == [(1, P(Fraction(-1, 2)))]
    # (t^2 + 1)/t = t + 1/t
    poly, parts = partial_fractions(rf([1, 0, 1], [0, 1]))
    assert poly == P(0, 1)
    assert parts == [(P(0, 1), [(1, P(1))])]


def _resum(f):
    poly, parts = partial_fractions(f)
    total = RatFunc(poly)
    for fac, terms in parts:
        for j, num in terms:
            den = Poly.const(QQ, 1)
            for _ in range(j):
                den = den * fac
            total = total + RatFunc(num, den)
    return total


def test_partial_fractions_idempotent():
    f = rf([3], [-2, 1]) + rf([1], [0, 0, 1])
    assert _resum(f) == f


def test_partial_fractions_random_exact():
    rng = random.Random(77)
    for _ in range(60):
        num = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
        den = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 5))]
        if all(c == 0 for c in den):
            den = [Fraction(1)]
        if all(c == 0 for c in num):
            num = [Fraction(1)]
        f = rf(num, den)
        if f.den.degree == 0:
            continue
        assert _resum(f) == f


def test_residue_examples():
    assert residue_at(rf([1], [0, 1]), Fraction(0)) == 1
    assert residue_at(rf([3], [-2, 1]) + rf([1], [0, 0, 1]), Fraction(2)) == 3
    assert residue_at(rf([1], [0, 1]), "inf") == -1


def test_residue_theorem_randomized():
    rng = random.Random(13)
    cases = 0
    while cases < 200:
        roots = []
        while len(roots) < rng.randint(1, 4):
            c = Fraction(rng.randint(-6, 6))
            if c not in roots:
                roots.append(c)
        den = Poly.const(QQ, 1)
        for r in roots:
            den = den * P(-r, 1)
        num = P(*[Fraction(rng.randint(-8, 8)) for _ in range(rng.randint(1, len(roots) + 2))])
        if num.is_zero():
            continue
        f = RatFunc(num, den)
        total = sum((residue_at(f, r) for r in roots), Fraction(0))
        total += residue_at(f, "inf")
        assert total == 0
        cases += 1


def test_partial_fractions_repeated_quadratic():
    # (x^3 + 2) / ((x^2 + 1)^2 (x - 1))
    den = P(1, 0, 1) * P(1, 0, 1) * P(-1, 1)
    f = RatFunc(P(2, 0, 0, 1), den)
    assert _resum(f) == f
    _, parts = partial_fractions(f)
    degrees = sorted(fac.degree for fac, _ in parts)
    assert degrees == [1, 2]
    for fac, terms in parts:
        for j, num in terms:
            assert num.degree < fac.degree


def test_equal_polys_and_ratfuncs_hash_alike():
    K = QuadExtField(QQ, 2)
    p, q = P(1, 2), Poly(K, [1, 2])
    assert p == q and hash(p) == hash(q) and q in {p}
    r, s = RatFunc(p, P(1, 1)), RatFunc(q, Poly(K, [1, 1]))
    assert r == s and hash(r) == hash(s) and s in {r}
