import gc
import random
from collections import defaultdict
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from quantcurve.algebra import INF, QQ, RatFunc
from quantcurve.oracles import airy_closed_free_energy, enumerate_cellular
from quantcurve.spectral import SpectralData
from quantcurve.toprec import (
    TopRecEngine,
    arrangement_sum,
    basis_function,
    branch_maps,
    build_curve,
    matching_branch_map,
    ratfunc_at_series,
)
from quantcurve.verify import (
    DIFF_SAMPLE_POINTS,
    airy_table_as_exponents,
    catalan_mu_coefficient,
    engine_for,
    wkb_state_for,
)
from quantcurve.curvespec import load_curve


def rf(num, den=(1,)):
    return RatFunc.from_coeffs(QQ, num, den)


def test_airy_curve_data(airy_engine):
    curve, eng = airy_engine
    assert curve.w01() == rf([16], [0, 0, 0, 0, 1])
    omega = (curve.y_sigma - curve.y) * curve.xprime
    assert omega == rf([-32], [0, 0, 0, 0, 1])
    assert curve.ram_points == [INF]
    assert set(map(str, curve.support)) == {"0", "inf"}


def test_catalan_curve_accepts_conjugate_roots(catalan_spec):
    p = catalan_spec.parametrization
    curve = build_curve(p.x, p.y, p.sigma, p.normalization_point, spectral=catalan_spec.sd)
    assert sorted(map(str, curve.ram_points)) == ["0", "inf"]


def test_sigma_involution_validation():
    with pytest.raises(ValueError, match="involution"):
        build_curve(rf([4], [0, 0, 1]), rf([-2], [0, 1]), rf([1, 2]), Fraction(0))


def test_x_invariance_validation():
    with pytest.raises(ValueError, match="sigma-invariant"):
        build_curve(rf([0, 1]), rf([-2], [0, 1]), rf([0, -1]), Fraction(0))


def test_conjugate_root_validation_catches_wrong_parametrization():
    # x = 2 + 4/(t^2+1) does not solve y^2 + x y + 1 = 0 with the declared y
    sd = SpectralData(rf([0, 1]), rf([1]))
    bad_x = rf([6, 0, 2], [1, 0, 1])
    y = rf([-1, -1], [-1, 1])
    with pytest.raises(ValueError, match="conjugate root"):
        build_curve(bad_x, y, rf([0, -1]), Fraction(-1), spectral=sd)


def test_airy_w11_w03(airy_engine):
    _, eng = airy_engine
    assert dict(eng.W(1, 1).items()) == {((INF, 4),): Fraction(-1, 128)}
    assert dict(eng.W(0, 3).items()) == {((INF, 2),) * 3: Fraction(-1, 16)}


def test_airy_free_energies(airy_engine):
    _, eng = airy_engine
    # F_{1,1} = -t^3/384, F_{0,3} = -t1 t2 t3/16
    f11 = eng.f_primitive((INF, 4))
    assert f11(Fraction(2)) == Fraction(8, 3)
    assert eng.f_evaluate(1, 1, [Fraction(2)]) == Fraction(-8, 384)
    val = eng.f_evaluate(0, 3, [Fraction(1), Fraction(2), Fraction(3)])
    assert val == Fraction(-6, 16)


def test_airy_matches_closed_form_to_level_4(airy_engine):
    _, eng = airy_engine
    for level in range(1, 5):
        for g in range((level + 2) // 2 + 1):
            n = level + 2 - 2 * g
            if n < 1:
                continue
            assert airy_table_as_exponents(eng, g, n) == airy_closed_free_energy(g, n)


def test_catalan_triangulation_small(catalan_engine):
    curve, eng = catalan_engine
    for (g, n, mu) in [(0, 1, None), (0, 3, (1, 1, 2)), (1, 1, (4,)), (1, 1, (6,)),
                       (0, 4, (1, 1, 1, 3)), (1, 2, (2, 4)), (2, 1, (8,))]:
        if mu is None:
            continue
        got = catalan_mu_coefficient(eng, curve, g, n, mu)
        want = Fraction(enumerate_cellular(g, n, mu))
        for m in mu:
            want /= m
        assert got == want, (g, n, mu)


@pytest.mark.parametrize("name", ["airy", "catalan"])
def test_tables_do_not_depend_on_history(name):
    _, cold = engine_for(load_curve(name))
    _, used = engine_for(load_curve(name))
    used.compute_level(5)
    # recompute levels 1-4 at the working order level 5 set, on local caches
    # that already hold the lower working orders
    for key in [k for k in used._w if 2 * k[0] - 2 + k[1] <= 4]:
        del used._w[key]
    for level in range(1, 5):
        for (g, n), tab in used.compute_level(level):
            assert tab.table == cold.W(g, n).table, (g, n)


def test_stable_range_guard(airy_engine):
    _, eng = airy_engine
    with pytest.raises(ValueError):
        eng.W(0, 2)
    with pytest.raises(ValueError):
        eng.F(0, 1)


def test_pole_locality_and_symmetry(airy_engine, catalan_engine):
    for curve, eng in (airy_engine, catalan_engine):
        for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (1, 3), (0, 5), (2, 2)]:
            tab = eng.W(g, n)
            for M in tab.table:
                assert len(M) == n
                for (q, d) in M:
                    assert q in curve.ram_points
                    assert q is INF or d >= 2


def test_diff_recursion_golden(airy_engine, catalan_engine):
    pts = [Fraction(3), Fraction(5), Fraction(7)]
    for curve, eng in (airy_engine, catalan_engine):
        assert eng.diff_recursion_check(0, 4, pts)
        assert eng.diff_recursion_check(1, 2, pts[:1])


def test_diff_recursion_range_guard(airy_engine):
    _, eng = airy_engine
    with pytest.raises(ValueError, match="2g-2\\+n >= 2"):
        eng.diff_recursion_check(1, 1, [])


def test_principal_specialization_m2(airy_engine, airy_spec):
    curve, eng = airy_engine
    st = wkb_state_for(airy_spec, depth=2, order=8)
    bm = matching_branch_map(curve, INF, 2, st.S_prime[0], 12)
    s2 = eng.principal_specialize(2, bm)
    # F_{1,1} + F_{0,3}/3! = -5 t^3/384 = -(5/48) x^(-3/2)
    assert dict(s2.body.items()) == {3: Fraction(-5, 48)}
    assert s2.body.eq_through(st.S[2].body, 8)


def test_principal_specialization_range_guard(airy_engine):
    _, eng = airy_engine
    from quantcurve.algebra import TruncSeries

    with pytest.raises(ValueError):
        eng.principal_specialize(1, TruncSeries.uniformizer(QQ, 8))


def test_branch_map_matches_y(catalan_engine, catalan_spec):
    curve, _ = catalan_engine
    st = wkb_state_for(catalan_spec, depth=0, order=10)
    bm = matching_branch_map(curve, INF, 1, st.S_prime[0], 12)
    y_on_branch = ratfunc_at_series(curve.y, bm)
    assert y_on_branch.eq_through(st.S_prime[0], 10)


def scaled_airy(rng):
    # x = a/t^2 + e, y = b/t: spectral curve y^2 = (b^2/a)(x - e)
    a = Fraction(rng.randint(1, 5))
    b = Fraction(rng.randint(1, 5))
    e = Fraction(rng.randint(-3, 3))
    x = rf([a], [0, 0, 1]) + rf([e])
    y = rf([b], [0, 1])
    return build_curve(x, y, rf([0, -1]), Fraction(0))


def xy_family(rng):
    # x = z + c/z with c = d^2: curve y^2 + x y + c = 0, sigma(z) = c/z
    d = Fraction(rng.randint(1, 4))
    c = d * d
    x = rf([c, 0, 1], [0, 1])
    y = rf([0, -1])
    sigma = rf([c], [0, 1])
    return build_curve(x, y, sigma, None)


def test_random_family_properties():
    rng = random.Random(17)
    for builder in (scaled_airy, xy_family):
        for _ in range(3):
            curve = builder(rng)
            eng = TopRecEngine(curve)
            for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2)]:
                tab = eng.W(g, n)
                for M in tab.table:
                    for (q, d) in M:
                        assert q in curve.ram_points
                        assert q is INF or d >= 2


def test_xy_family_matches_wkb():
    # central identity on a famille member away from the shipped curves
    rng = random.Random(23)
    curve = xy_family(rng)
    eng = TopRecEngine(curve)
    c = curve.x.num.coeffs[0]
    a1 = rf([0, 1])
    a2 = rf([c])
    from quantcurve.wkb import WkbConfig, solve_wkb

    cfg = WkbConfig(a1, a2, INF, e=1, branch="plus", order=14, depth=3)
    st = solve_wkb(cfg)
    curve.normpt = None
    # normalization point: the preimage of x = inf with y -> 0 is z = 0
    curve.normpt = Fraction(0)
    bm = matching_branch_map(curve, INF, 1, st.S_prime[0], 14)
    for m in (2, 3):
        sm = eng.principal_specialize(m, bm)
        assert sm.body.eq_through(st.S[m].body, 10)


def test_airy_level_5_recovers_genus_3_correlator(airy_engine):
    # the deepest single entry: W_{3,1} encodes the genus-3 one-point number
    _, eng = airy_engine
    got = airy_table_as_exponents(eng, 3, 1)
    want = airy_closed_free_energy(3, 1)
    assert got == want
    # unpack the correlator itself
    from quantcurve.oracles import double_factorial, dvv_intersection

    (exps, coeff), = got.items()
    assert exps == (15,)
    corr = coeff / Fraction(-1, 2 ** 5) / Fraction(double_factorial(13), 2 ** 15)
    assert corr == Fraction(1, 82944) == dvv_intersection(3, (7,))


# ---------------------------------------------------------------------------
# arrangement sum, pole expansions and reference cycles


def _brute_arrangement_sum(M, value):
    total = 0
    for perm in set(permutations(M)):
        term = Fraction(1)
        for i, key in enumerate(perm):
            term = value(key, i) * term
        total = total + term
    return total


_ARRANGEMENT_SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)
_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@_ARRANGEMENT_SETTINGS
@given(M=st.lists(st.sampled_from("abc"), max_size=6),
       table=st.lists(_FRACTIONS, min_size=18, max_size=18))
def test_arrangement_sum_matches_permutations(M, table):
    calls = []

    def value(key, i):
        calls.append((key, i))
        return table[6 * "abc".index(key) + i]

    got = arrangement_sum(tuple(M), value)
    assert len(calls) == len(set(calls)) == len(set(M)) * len(M)
    assert got == _brute_arrangement_sum(M, value)


@_ARRANGEMENT_SETTINGS
@given(M=st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
       table=st.lists(_FRACTIONS, min_size=18, max_size=18),
       data=st.data())
def test_arrangement_sum_with_symbolic_slot(M, table, data):
    last = data.draw(st.integers(0, len(M) - 1))

    def value(key, i):
        c = table[6 * "abc".index(key) + i]
        if i != last:
            return c
        # c / (t + index of key): one rational function per key
        return rf([c], ["abc".index(key), 1])

    got = arrangement_sum(tuple(M), value, last)
    assert isinstance(got, RatFunc)
    assert got == _brute_arrangement_sum(M, value)


def _reference_kernel_vectors(eng, p, order):
    # 1/(t1 - sigma(z)) - 1/(t1 - z), one hand-written loop per case
    kv = [defaultdict(Fraction) for _ in range(order + 1)]
    if p is INF:
        for k in range(order):
            kv[k + 1][(INF, k + 2)] += 1
    else:
        for k in range(order + 1):
            kv[k][(p, k + 1)] -= 1
    pp, powers = eng._sigma_powers(p, order)
    if pp is INF:
        for k in range(order):
            v = powers.get(k + 1)
            if v is None:
                break
            for j, c in v.items():
                if j <= order:
                    kv[j][(INF, k + 2)] -= c
    else:
        for m in range(order + 1):
            v = powers.get(m)
            if v is None:
                break
            for j, c in v.items():
                if j <= order:
                    kv[j][(pp, m + 1)] += c
    return kv


def _reference_coupled_vectors(eng, p, order, side):
    # 1/(arg - t_j)^2 with arg = z or sigma(z), one hand-written loop per case
    vec = [defaultdict(Fraction) for _ in range(order + 1)]
    if side == "z":
        if p is INF:
            for m in range(2, order + 1):
                vec[m][(INF, m)] += m - 1
        else:
            for k in range(order + 1):
                vec[k][(p, k + 2)] += k + 1
        return vec
    pp, powers = eng._sigma_powers(p, order)
    if pp is INF:
        for k in range(order):
            v = powers.get(k + 2)
            if v is None:
                break
            for j, c in v.items():
                if j <= order:
                    vec[j][(INF, k + 2)] += (k + 1) * c
    else:
        for m in range(order + 1):
            v = powers.get(m)
            if v is None:
                break
            for j, c in v.items():
                if j <= order:
                    vec[j][(pp, m + 2)] += (m + 1) * c
    return vec


@pytest.mark.parametrize("name", ["airy", "catalan"])
def test_pole_vectors_match_reference_loops(name):
    _, eng = engine_for(load_curve(name))
    for p in eng.curve.support:
        for order in (1, 2, 5, 12, 34):
            assert eng._kernel_vectors(p, order) == _reference_kernel_vectors(eng, p, order), (p, order)
            for side in ("z", "s"):
                assert (eng._coupled_vectors(p, order, side)
                        == _reference_coupled_vectors(eng, p, order, side)), (p, order, side)


def test_reads_leave_no_reference_cycles(catalan_engine):
    curve, eng = catalan_engine
    points = DIFF_SAMPLE_POINTS

    def reads():
        catalan_mu_coefficient(eng, curve, 0, 3, (1, 1, 2))
        eng.diff_recursion_check(0, 4, points[:3])
        eng.diff_recursion_check(1, 3, points[:2])
        eng.f_evaluate(0, 3, [None, Fraction(2), Fraction(3)])
        eng.f_evaluate(1, 2, [Fraction(2), Fraction(3)])

    reads()  # fill the tables and caches first
    gc.collect()
    gc.disable()
    try:
        reads()
        assert gc.collect() == 0
    finally:
        gc.enable()
