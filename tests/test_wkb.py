import random
from fractions import Fraction

import pytest

from quantcurve.algebra import INF, QQ, QuadExtField, RatFunc, expand_ratfunc
from quantcurve.wkb import (
    WkbConfig,
    assemble_wavefunction,
    consistency_s1,
    semiclassical_root,
    solve_wkb,
    verify_operator,
    wkb_extend,
)


def rf(num, den=(1,)):
    return RatFunc.from_coeffs(QQ, num, den)


AIRY = (rf([0]), rf([0, -1]))
HERMITE = (rf([0, 1]), rf([1]))
GAUSS = (rf([-1, 2], [0, -1, 1]), rf([1], [0, -4, 4]))


def test_airy_golden():
    cfg = WkbConfig(*AIRY, INF, e=2, branch="minus", order=12, depth=2)
    st = solve_wkb(cfg)
    s0, s1, s2 = st.S
    assert s0.lam == 0 and dict(s0.body.items()) == {-3: Fraction(-2, 3)}
    assert s1.lam == Fraction(1, 4) and s1.body.is_zero()
    assert s2.lam == 0 and dict(s2.body.items()) == {3: Fraction(-5, 48)}


def test_airy_oddness_parity():
    cfg = WkbConfig(*AIRY, INF, e=2, branch="minus", order=24, depth=6)
    st = solve_wkb(cfg)
    for m in range(2, 7):
        terms = dict(st.S[m].body.items())
        # a single monomial at tau^(3(m-1)): the parity forced by homogeneity
        assert set(terms) == {3 * (m - 1)}, (m, terms)


def test_airy_branch_swap_vieta():
    minus = solve_wkb(WkbConfig(*AIRY, INF, e=2, branch="minus", order=10, depth=0))
    plus = solve_wkb(WkbConfig(*AIRY, INF, e=2, branch="plus", order=10, depth=0))
    a1s = minus.a1s
    a2s = minus.a2s
    total = plus.S_prime[0] + minus.S_prime[0]
    assert (total + a1s).is_zero()
    prod = plus.S_prime[0] * minus.S_prime[0]
    assert (prod - a2s).is_zero()


def test_catalan_golden():
    cfg = WkbConfig(*HERMITE, INF, e=1, branch="plus", order=13, depth=1)
    st = solve_wkb(cfg)
    # S0' = -z(x), the Catalan number series
    sp = st.S_prime[0]
    assert [sp.coefficient(k) for k in (1, 3, 5, 7, 9, 11)] == [-1, -1, -2, -5, -14, -42]
    # S0 = -z^2/2 + log z with zero constant
    z = expand_ratfunc(rf([1, 0, 1], [0, 1]), Fraction(0), 14).reversion()
    expect = -(z * z) * Fraction(1, 2) + z.shift(-1).log1()
    assert st.S[0].lam == 1
    assert st.S[0].body.eq_through(expect, 11)
    # S1 = -(1/2) log(1 - z^2)
    expect1 = (1 - z * z).log1() * Fraction(-1, 2)
    assert st.S[1].lam == 0
    assert st.S[1].body.eq_through(expect1, 11)


def test_gauss_golden_series():
    cfg = WkbConfig(*GAUSS, Fraction(0), e=1, branch="plus", order=8, depth=2)
    st = solve_wkb(cfg)
    s1_want = {2: Fraction(-7, 32), 3: Fraction(-53, 96), 4: Fraction(-1075, 1024),
               5: Fraction(-4319, 2560), 6: Fraction(-28319, 12288), 7: Fraction(-72109, 28672)}
    s2_want = {2: Fraction(7, 32), 3: Fraction(113, 96), 4: Fraction(1821, 512),
               5: Fraction(1269, 160), 6: Fraction(56151, 4096), 7: Fraction(487323, 28672)}
    for k, v in s1_want.items():
        assert st.S[1].body.coefficient(k) == v
    for k, v in s2_want.items():
        assert st.S[2].body.coefficient(k) == v
    assert st.S[0].body.coefficient(1) == Fraction(1, 4)


def test_odd_valuation_requires_branch_chart():
    with pytest.raises(ValueError, match="e = 2"):
        solve_wkb(WkbConfig(*AIRY, Fraction(0), e=1, branch="plus", order=6, depth=1))
    solve_wkb(WkbConfig(*AIRY, Fraction(0), e=2, branch="plus", order=6, depth=1))


def test_field_extension_on_demand():
    # discriminant 4*3x at infinity: leading coefficient 12 is not a square
    cfg = WkbConfig(rf([0]), rf([0, -3]), INF, e=2, branch="minus", order=8, depth=2)
    st = solve_wkb(cfg)
    assert isinstance(st.field, QuadExtField)
    sq = st.S_prime[0] * st.S_prime[0]
    assert sq.eq_through(st.a2s * (-1), 6)
    assert verify_operator(st)["ok"]


def test_verify_operator_golden():
    st = solve_wkb(WkbConfig(*AIRY, INF, e=2, branch="minus", order=18, depth=4))
    rep = verify_operator(st)
    assert rep["ok"] and len(rep["levels"]) == 5
    stg = solve_wkb(WkbConfig(*GAUSS, Fraction(0), e=1, branch="plus", order=8, depth=2))
    assert verify_operator(stg)["ok"]


def test_s0_only_residual_is_consistency_term():
    st = semiclassical_root(WkbConfig(*AIRY, INF, e=2, branch="minus", order=10, depth=0))
    rep = verify_operator(st)
    assert rep["levels"][0]["zero"]
    # no S1 yet: the h^1 level is exactly S0'' which does not vanish
    st.S.append(st.S[0] * 0)
    st.S_prime.append(st.S_prime[0] * 0)
    rep = verify_operator(st)
    assert rep["levels"][0]["zero"] and not rep["levels"][1]["zero"]


def test_truncation_exhausted():
    # a requested order the working expansion cannot guarantee
    cfg = WkbConfig(*GAUSS, Fraction(0), e=1, branch="plus", order=16, depth=3)
    st = semiclassical_root(cfg, _work_order=12)
    consistency_s1(st)
    with pytest.raises(ValueError, match="truncation exhausted"):
        wkb_extend(st)


def test_hermite_hbar_one_double_factorials():
    # at h = 1 the assembled series is sum (2n-1)!! / x^(2n+1), i.e. the
    # error-function asymptotics 1, 1, 3, 15, 105 after the 1/x prefactor
    st = solve_wkb(WkbConfig(*HERMITE, INF, e=1, branch="plus", order=14, depth=6))
    wave = assemble_wavefunction(st)
    pref, body = wave.specialize_h(1)
    assert pref == 1  # prefactor (1/x)^(1/h) becomes 1/x
    for n, expect in enumerate([1, 1, 3, 15, 105]):
        assert body.coefficient(2 * n) == expect
        if 2 * n + 1 <= body.order:
            assert body.coefficient(2 * n + 1) == 0


def test_assemble_rejects_essential_prefactor():
    st = solve_wkb(WkbConfig(*AIRY, INF, e=2, branch="minus", order=10, depth=2))
    with pytest.raises(ValueError, match="essential"):
        assemble_wavefunction(st)


def test_zero_exponent_gives_unit_wave():
    st = solve_wkb(WkbConfig(*HERMITE, INF, e=1, branch="plus", order=8, depth=2))
    for m in range(len(st.S)):
        st.S[m] = st.S[m] * 0
    wave = assemble_wavefunction(st)
    assert wave.coefficient(0) == wave.body.field.one()
    assert all(wave.coefficient(k) == wave.body.field.zero()
               for k in range(1, wave.body.order + 1))


def test_randomized_operator_annihilation():
    rng = random.Random(8)
    cases = 0
    while cases < 12:
        # small operators with squared leading behavior so the root stays rational
        c = Fraction(rng.randint(1, 5))
        a1 = rf([Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))])
        g = rf([c * c]) + rf([0, Fraction(rng.randint(-4, 4))])
        a2 = (a1 * a1 - g * g) * Fraction(1, 4)
        try:
            cfg = WkbConfig(a1, a2, Fraction(0), e=1,
                            branch=rng.choice(["plus", "minus"]), order=8, depth=3)
            st = solve_wkb(cfg)
        except ValueError:
            continue
        assert verify_operator(st)["ok"]
        cases += 1


def test_hermite_at_finite_branch_point():
    # Puiseux chart tau^2 = x - 2 at the turning point of the Hermite operator
    cfg = WkbConfig(*HERMITE, Fraction(2), e=2, branch="plus", order=10, depth=3)
    st = solve_wkb(cfg)
    assert st.S[0].lam == 0
    assert st.S[0].body.coefficient(2) == -1
    assert st.S[0].body.coefficient(3) == Fraction(2, 3)
    # universal -(1/4) log of the uniformizer at a simple turning point
    assert st.S[1].lam == Fraction(-1, 4)
    assert verify_operator(st)["ok"]
