import math
import warnings
from fractions import Fraction

import pytest

from quantcurve.algebra import HBAR_FIELD, FracFuncElement, expand_ratfunc
from quantcurve.oracles import (
    airy_closed_free_energy,
    catalan_closed_form,
    double_factorial,
    dvv_intersection,
    enumerate_cellular,
    gauss_2f1_series,
    gauss_pi_product_series,
    hbar_evaluate,
)

# psi-class values frozen from independent published tables
FROZEN = {
    (0, (0, 0, 0)): Fraction(1),
    (0, (1, 0, 0, 0)): Fraction(1),
    (0, (2, 0, 0, 0, 0)): Fraction(1),
    (0, (1, 1, 0, 0, 0)): Fraction(2),
    (1, (1,)): Fraction(1, 24),
    (1, (2, 0)): Fraction(1, 24),
    (1, (1, 1)): Fraction(1, 24),
    (1, (3, 0, 0)): Fraction(1, 24),
    (1, (2, 1, 0)): Fraction(1, 12),
    (1, (1, 1, 1)): Fraction(1, 12),
    (2, (4,)): Fraction(1, 1152),
    (2, (5, 0)): Fraction(1, 1152),
    (2, (4, 1)): Fraction(1, 384),
    (2, (3, 2)): Fraction(29, 5760),
    (3, (7,)): Fraction(1, 82944),
    (3, (7, 1)): Fraction(5, 82944),
    (3, (6, 2)): Fraction(77, 414720),
    (3, (5, 3)): Fraction(503, 1451520),
    (3, (4, 4)): Fraction(607, 1451520),
}


def test_dvv_frozen_table():
    for (g, ds), v in FROZEN.items():
        assert dvv_intersection(g, ds) == v, (g, ds)


def test_dvv_dimension_mismatch_warns_and_returns_zero():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        assert dvv_intersection(1, (2,)) == 0
        assert any("dimension" in str(x.message) for x in w)


def _dim_tuples(n, total):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _dim_tuples(n - 1, total - first):
            yield (first,) + rest


def string_equation_holds(g, ds):
    lhs = dvv_intersection(g, ds + (0,))
    rhs = Fraction(0)
    for j, d in enumerate(ds):
        if d >= 1:
            rhs += dvv_intersection(g, ds[:j] + (d - 1,) + ds[j + 1:])
    return lhs == rhs


def dilaton_equation_holds(g, ds):
    n = len(ds)
    lhs = dvv_intersection(g, ds + (1,))
    rhs = (2 * g - 2 + n) * dvv_intersection(g, ds)
    return lhs == rhs


def test_string_and_dilaton_up_to_weight_8():
    cases = 0
    for g in range(0, 3):
        for n in range(1, 5):
            if 2 * g - 2 + n <= 0:
                continue  # the equations reduce onto stable correlators only
            # string: <tau_0 tau_d...> lives in dimension 3g - 3 + n + 1
            total = 3 * g - 2 + n
            if 0 <= total <= 8:
                for ds in _dim_tuples(n, total):
                    assert string_equation_holds(g, ds)
                    cases += 1
            # dilaton: <tau_1 tau_d...> needs sum(d) = 3g - 3 + n
            total = 3 * g - 3 + n
            if 0 <= total <= 8:
                for ds in _dim_tuples(n, total):
                    assert dilaton_equation_holds(g, ds)
                    cases += 1
    assert cases > 40


def test_cellular_small_counts():
    assert enumerate_cellular(0, 1, (2,)) == 1
    assert enumerate_cellular(0, 1, (4,)) == 2
    assert enumerate_cellular(1, 1, (4,)) == 1
    assert enumerate_cellular(0, 1, (6,)) == 5
    assert enumerate_cellular(1, 1, (6,)) == 10
    assert enumerate_cellular(0, 2, (1, 1)) == 1


def test_cellular_odd_sum_zero():
    assert enumerate_cellular(0, 2, (1, 2)) == 0
    assert enumerate_cellular(1, 1, (3,)) == 0


def test_cellular_symmetric_in_mu():
    assert enumerate_cellular(0, 2, (1, 3)) == enumerate_cellular(0, 2, (3, 1))
    assert enumerate_cellular(0, 3, (1, 2, 3)) == enumerate_cellular(0, 3, (3, 2, 1))


def test_cellular_size_guard():
    with pytest.raises(ValueError):
        enumerate_cellular(0, 1, (14,))


def test_catalan_closed_form():
    F = HBAR_FIELD
    h = F.gen
    assert catalan_closed_form(0) == F.one()
    assert catalan_closed_form(1) == (F.one() + h) / (h + h)
    for n, expect in enumerate([1, 1, 3, 15, 105]):
        assert hbar_evaluate(catalan_closed_form(n), 1) == expect
        assert expect == double_factorial(2 * n - 1)


def _pochhammer_closed_form(n):
    # h^n (1/h)_{2n} / (2n)!! as 3n products in QQ(h), each reduced by a
    # polynomial gcd: the construction catalan_closed_form replaced
    F = HBAR_FIELD
    h = F.gen
    out = F.one()
    for j in range(2 * n):
        out = out * (F.one() / h + F.of(j))
    for _ in range(n):
        out = out * h
    return out / F.of(double_factorial(2 * n))


def test_catalan_closed_form_matches_the_pochhammer_loop():
    for n in range(11):
        got, want = catalan_closed_form(n), _pochhammer_closed_form(n)
        assert got == want, n
        assert (got.rf.num, got.rf.den) == (want.rf.num, want.rf.den), n


def test_gauss_2f1_series():
    cs = gauss_2f1_series(4)
    F = HBAR_FIELD
    h = F.gen
    assert cs[0] == F.one()
    assert cs[1] == F.one() / (F.of(4) * h)
    # coefficient of (x/h)^2 is (1+8h)/(32(1+h))
    assert cs[2] * h * h == (F.one() + F.of(8) * h) / (F.of(32) * (F.one() + h))
    for n, expect in enumerate([Fraction(1), Fraction(1, 4), Fraction(9, 64), Fraction(25, 256)]):
        assert hbar_evaluate(cs[n], 1) == expect


def test_gauss_pi_product_matches_2f1():
    cs = gauss_2f1_series(6)
    pp = gauss_pi_product_series(6)
    assert all(cs[n] == pp[n] for n in range(7))


def _pochhammer(q, n):
    out = Fraction(1)
    for j in range(n):
        out *= q + j
    return out


def test_gauss_parameters_descend():
    # generic rational parameters produce coefficients in QQ(h), and at h = 1
    # the deformed parameters are (a, b; c): the classical 2F1 coefficients
    for a, b, c in [(Fraction(1, 3), Fraction(1, 5), Fraction(2)),
                    (Fraction(1), Fraction(2), Fraction(3, 2))]:
        cs = gauss_2f1_series(6, a=a, b=b, c=c)
        assert len(cs) == 7 and all(isinstance(x, FracFuncElement) for x in cs)
        for n, x in enumerate(cs):
            want = _pochhammer(a, n) * _pochhammer(b, n) / (_pochhammer(c, n) * math.factorial(n))
            assert hbar_evaluate(x, 1) == want


def test_airy_closed_free_energy_values():
    assert airy_closed_free_energy(1, 1) == {(3,): Fraction(-1, 384)}
    f03 = airy_closed_free_energy(0, 3)
    assert f03 == {(1, 1, 1): Fraction(-1, 16)}
    # principal specialization F_{0,3}(x,x,x) = -(1/2) x^(-3/2) via t = 2/sqrt(x)
    coeff = f03[(1, 1, 1)] * 2 ** 3  # t^3 with t = 2 tau, tau = x^(-1/2)
    assert coeff == Fraction(-1, 2)


def test_airy_closed_homogeneity():
    for (g, n) in [(0, 3), (1, 1), (1, 2), (0, 4), (2, 1)]:
        table = airy_closed_free_energy(g, n)
        for exps in table:
            assert sum(exps) == 6 * g - 6 + 3 * n
            assert all(e % 2 == 1 for e in exps)
