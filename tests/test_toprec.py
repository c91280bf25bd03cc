import gc
import hashlib
import random
from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from quantcurve.algebra import (
    INF, QQ, Poly, QuadExtField, RatFunc, TruncSeries, expand_ratfunc, factor_over, poly_pow,
    ratfunc_of_fractions,
)
from quantcurve.algebra import series as series_module
from quantcurve.oracles import airy_closed_free_energy, enumerate_cellular
from quantcurve.spectral import SpectralData
from quantcurve import toprec
from quantcurve.toprec import (
    ParamCurve,
    TopRecEngine,
    _placements,
    _residue,
    arrangement_sum,
    basis_function,
    branch_maps,
    key_sort,
    matching_branch_map,
    primitive_fractions,
    ratfunc_at_series,
)
from quantcurve.verify import (
    DIFF_SAMPLE_POINTS,
    airy_table_as_exponents,
    catalan_mu_coefficient,
    engine_for,
    wkb_state_for,
)
from quantcurve.curvespec import BUILTIN_NAMES, load_curve


def rf(num, den=(1,)):
    return RatFunc.from_coeffs(num, den)


def test_airy_curve_data(airy_engine):
    curve, eng = airy_engine
    assert curve.y * curve.xprime == rf([16], [0, 0, 0, 0, 1])
    omega = (curve.y_sigma - curve.y) * curve.xprime
    assert omega == rf([-32], [0, 0, 0, 0, 1])
    assert curve.ram_points == [INF]
    assert set(map(str, curve.support)) == {"0", "inf"}


def test_catalan_curve_accepts_conjugate_roots(catalan_spec):
    p = catalan_spec.parametrization
    curve = ParamCurve(p.x, p.y, p.sigma, p.normalization_point, spectral=catalan_spec.sd)
    assert sorted(map(str, curve.ram_points)) == ["0", "inf"]


def test_sigma_involution_validation():
    with pytest.raises(ValueError, match="involution"):
        ParamCurve(rf([4], [0, 0, 1]), rf([-2], [0, 1]), rf([1, 2]), Fraction(0))


def test_x_invariance_validation():
    with pytest.raises(ValueError, match="sigma-invariant"):
        ParamCurve(rf([0, 1]), rf([-2], [0, 1]), rf([0, -1]), Fraction(0))


def test_conjugate_root_validation_catches_wrong_parametrization():
    # x = 2 + 4/(t^2+1) does not solve y^2 + x y + 1 = 0 with the declared y
    sd = SpectralData(rf([0, 1]), rf([1]))
    bad_x = rf([6, 0, 2], [1, 0, 1])
    y = rf([-1, -1], [-1, 1])
    with pytest.raises(ValueError, match="conjugate root"):
        ParamCurve(bad_x, y, rf([0, -1]), Fraction(-1), spectral=sd)


# the points of the curve as ParamCurve derived them before it read the
# divisor of Omega and sigma's Mobius coefficients: the reference below


def _rational_points_of(poly, what):
    roots = []
    for fac, mult in factor_over(poly):
        if fac.degree != 1:
            raise ValueError(f"{what} has an irrational point (factor {fac.to_str()}); "
                             "the residue engine needs rational support")
        roots.append((-fac.coeffs[0], mult))
    return roots


def _eval_extended(f, p):
    o = f.order_at(p)
    if o < 0:
        return INF
    if p is not INF:
        return f(p)
    return Fraction(0) if o > 0 else f.num.leading() / f.den.leading()


def _reference_points(curve):
    """(ram_points, support, images) by the old derivation."""
    ram = [r for r, _ in _rational_points_of(curve.xprime.num, "dx")
           if _eval_extended(curve.sigma, r) == r]
    if curve.xprime.order_at(INF) > 2 and _eval_extended(curve.sigma, INF) is INF:
        ram.append(INF)
    support = [r for r, _ in _rational_points_of(curve.omega.num, "Omega")]
    support += [r for r, _ in _rational_points_of(curve.omega.den, "Omega") if r not in support]
    if curve.omega.order_at(INF) != 2 and INF not in support:
        support.append(INF)
    return ram, support, tuple(_eval_extended(curve.sigma, p) for p in support)


def _spec_file_curve(name):
    return engine_for(load_curve(str(Path(__file__).parent / "specs" / f"{name}.json")))[0]


@pytest.mark.parametrize("name", ["airy", "catalan", "hermite", "node", "cusp", "families"])
def test_curve_points_match_the_old_derivation(name):
    if name in ("node", "cusp"):
        curves = [_spec_file_curve(name)]
    elif name == "families":
        rng = random.Random(17)
        curves = [builder(rng) for builder in (scaled_airy, xy_family) for _ in range(4)]
    else:
        curves = [engine_for(load_curve(name))[0]]
    for curve in curves:
        assert (curve.ram_points, curve.support, curve.images) == _reference_points(curve)


_small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=st.one_of(st.just(INF), _small_fractions), q=_small_fractions,
       m=st.one_of(st.none(), st.integers(0, 3)), zs=st.lists(_small_fractions, max_size=4))
def test_sigma_at_matches_evaluation_on_curves(p, q, m, zs):
    # the involution with the fixed points p != q, on the invariant x =
    # ((t - p) / (t - q))^2, or x = (t - q)^2 with p = INF, where c = 0;
    # (x - m^2)^2 adds zeros of dx that sigma swaps, which are no
    # ramification points
    assume(p != q)
    t = RatFunc.x()
    if p is INF:
        sigma, x = 2 * q - t, (t - q) * (t - q)
    else:
        sigma = ((p + q) * t - 2 * p * q) / (2 * t - (p + q))
        x = (t - p) * (t - p) / ((t - q) * (t - q))
    if m is not None:
        x = (x - m * m) * (x - m * m)
    curve = ParamCurve(x, t, sigma, None)
    a, b, c, e = curve.mobius
    assert RatFunc(Poly([b, a]), Poly([e, c])) == sigma
    for z in [INF, p, q, *([-e / c] if c else []), *zs]:
        assert curve.sigma_at(z) == _eval_extended(sigma, z), z
    assert (curve.ram_points, curve.support, curve.images) == _reference_points(curve)
    # sigma's germ at each support point, and the vectors built from it
    eng = TopRecEngine(curve)
    for i, (z, image, germ) in enumerate(zip(curve.support, curve.images, curve.germs)):
        _assert_germ(sigma, z, image, germ)
        for order in (0, 1, 3, 6):
            assert (_decoded(eng, eng._kernel_vectors(i, order))
                    == _nonzero(_reference_kernel_vectors(curve, z, order))), (z, order)
            for side in ("z", "s"):
                assert (_decoded(eng, eng._coupled_vectors(i, order, side))
                        == _nonzero(_reference_coupled_vectors(curve, z, order, side))), (z, order, side)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=_small_fractions, b=_small_fractions, c=_small_fractions, zs=st.lists(_small_fractions, max_size=4))
def test_sigma_at_matches_evaluation_on_involutions(a, b, c, zs):
    # sigma(t) = (a t + b) / (c t - a), fixed points rational or not;
    # sigma_at reads only the Mobius coefficients
    assume(a * a + b * c != 0)
    sigma = RatFunc(Poly([b, a]), Poly([-a, c]))
    assert sigma.compose(sigma) == RatFunc.x()
    curve = SimpleNamespace(mobius=(a, b, c, -a))
    for z in [INF, *([a / c] if c else []), *zs]:
        image = _eval_extended(sigma, z)
        assert ParamCurve.sigma_at(curve, z) == image, z
        _assert_germ(sigma, z, image, ParamCurve._germ(curve, z, image))


def _local_coordinate(sigma, p, q, order):
    # sigma's local coordinate at q = sigma(p) (sigma - q, or 1/sigma at
    # INF), expanded at p through u^order
    return expand_ratfunc(RatFunc.const(1) / sigma if q is INF else sigma - RatFunc.const(q), p, order)


def _assert_germ(sigma, p, q, germ, order=7):
    # alpha u / (1 + gamma u) = sum over n >= 1 of alpha (-gamma)^(n-1) u^n
    alpha, gamma = germ
    s = _local_coordinate(sigma, p, q, order)
    want = [0] + [alpha * (-gamma) ** (n - 1) for n in range(1, order + 1)]
    assert [s.coefficient(n) for n in range(order + 1)] == want, (p, q)


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


# the engine methods whose memo entries are (order, local data) at a point
LOCAL_SERIES = ("_expansion", "_kernel_vectors", "_coupled_vectors")


def test_engine_state_is_the_curve_and_one_memo():
    _, eng = engine_for(load_curve("airy"))
    eng.compute_level(2)
    assert set(vars(eng)) == {"curve", "_memo"}
    assert {key[0] for key in eng._memo} >= {"_compute_w", "_transform", "_vals", "_diag"}


@pytest.mark.parametrize("name", ["airy", "catalan"])
def test_tables_do_not_depend_on_history(name):
    _, cold = engine_for(load_curve(name))
    _, used = engine_for(load_curve(name))
    used.compute_level(5)
    # recompute levels 1-4 with no transform cached, from the local series
    # and vectors that level 5 left longer than those transforms request
    for key in list(used._memo):
        if key[0] == "_transform" or key[0] == "_compute_w" and 2 * key[1] - 2 + key[2] <= 4:
            del used._memo[key]
    for level in range(1, 5):
        for (g, n), tab in used.compute_level(level):
            assert tab.table == cold.W(g, n).table, (g, n)
    local = [k for k in cold._memo if k[0] in LOCAL_SERIES]
    assert any(used._memo[k][0] > cold._memo[k][0] for k in local)


# the builtins with a parametrization, so with a recursion support
PARAMETRIZED = [name for name in BUILTIN_NAMES if load_curve(name).parametrization is not None]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(name=st.sampled_from(PARAMETRIZED), d=st.integers(1, 60), data=st.data())
def test_key_ids_round_trip(name, d, data):
    _, eng = engine_for(load_curve(name))
    key = (data.draw(st.sampled_from(eng.curve.support)), d)
    i = eng._key_id(key)
    assert isinstance(i, int) and eng._key_of(i) == key
    # a pure function of the key and the support: a fresh engine agrees
    assert engine_for(load_curve(name))[1]._key_id(key) == i


def test_key_ids_rank_places_in_key_sort_order(catalan_engine):
    _, eng = catalan_engine
    keys = [(q, d) for q in eng.curve.support for d in (2, 5)]
    ids = {eng._key_id(k): k for k in keys}
    same_order = [ids[i] for i in sorted(ids) if ids[i][1] == 2]
    assert same_order == sorted((k for k in keys if k[1] == 2), key=key_sort)


@pytest.mark.parametrize("place", [Fraction(2), Fraction(1, 3)])
def test_key_id_outside_the_support_raises(airy_engine, place):
    _, eng = airy_engine
    with pytest.raises(AssertionError, match="outside the recursion support"):
        eng._key_id((place, 2))


@pytest.mark.parametrize("name", ["airy", "catalan"])
def test_public_tables_hold_sorted_place_keys(name, request):
    curve, eng = request.getfixturevalue(f"{name}_engine")
    for level in range(1, 6):
        for _, tab in eng.compute_level(level):
            for M in tab.table:
                assert M == tuple(sorted(M, key=key_sort))
                for key in M:
                    assert isinstance(key, tuple) and len(key) == 2
                    assert key[0] in curve.support and type(key[1]) is int


@pytest.mark.parametrize("name,count", [("airy", 35), ("catalan", 102)])
def test_each_transform_is_computed_once(name, count, monkeypatch):
    computed = []
    transform = TopRecEngine._transform

    def counted(self, fspec, gspec):
        if ("_transform", fspec, gspec) not in self._memo:
            computed.append((fspec, gspec))
        return transform(self, fspec, gspec)

    monkeypatch.setattr(TopRecEngine, "_transform", counted)
    _, eng = engine_for(load_curve(name))
    for level in range(1, 6):
        eng.compute_level(level)
    assert len(computed) == len(set(computed)) == count


# ceilings on the local-series kernel calls of a cold engine through level
# 5: expand_ratfunc (the diagonal, and Omega and sigma' for sigma'/Omega),
# and linear_forms_ints, the closed form of the basis functions and their
# pullbacks.  A rebuild at each longer order a transform asks for makes 61
# (airy) and 190 (catalan) in all; ``ceiling`` bounds the sum, and
# LAURENT_CEILINGS the expand_ratfunc calls alone.  The pole vectors read
# sigma's germ and expand nothing, so an expansion of sigma's local
# coordinate that comes back exceeds both
LAURENT_CEILINGS = {"airy": 9, "catalan": 22}


@pytest.mark.parametrize("name,ceiling", [("airy", 37), ("catalan", 128)])
def test_local_series_are_rebuilt_a_few_times(name, ceiling, monkeypatch):
    calls = defaultdict(list)

    def counted(kernel):
        def call(f, place, order):
            calls[kernel.__name__].append((place, order))
            return kernel(f, place, order)
        return call

    monkeypatch.setattr(toprec, "expand_ratfunc", counted(toprec.expand_ratfunc))
    monkeypatch.setattr(toprec, "linear_forms_ints", counted(toprec.linear_forms_ints))
    _, eng = engine_for(load_curve(name))
    for level in range(1, 6):
        eng.compute_level(level)
    assert len(calls["expand_ratfunc"]) <= LAURENT_CEILINGS[name]
    assert sum(map(len, calls.values())) <= ceiling


def _engine_named(name):
    if name == "xy":
        return TopRecEngine(xy_family(random.Random(5)))
    return engine_for(load_curve(name))[1]


# xy: sigma(z) = c / z, a Mobius map with a pole, unlike t -> -t
@pytest.mark.parametrize("name", ["airy", "catalan", "hermite", "xy"])
def test_sigma_pullbacks_match_compose(name):
    # the valuations of the basis functions and of their pullbacks; the
    # series themselves are checked in test_closed_form_series_match_laurent_ints
    eng = _engine_named(name)
    curve = eng.curve
    for q in curve.support:
        for d in range(1, 9):
            key = (q, d)
            phi = basis_function(key)
            want = phi.compose(curve.sigma)
            tag = ("phis", eng._key_id(key))
            assert eng._vals(tag) == tuple(want.order_at(p) for p in curve.support), key
            assert eng._vals(("phi", tag[1])) == tuple(phi.order_at(p) for p in curve.support), key


def _series_fields(s):
    return s.val, s.den, s.nums, s.order


@pytest.mark.parametrize("name", ["airy", "catalan", "hermite", "xy"])
def test_closed_form_series_match_laurent_ints(name):
    eng = _engine_named(name)
    curve = eng.curve
    support = curve.support
    images = curve.images
    points = set()
    for q in support:
        for d in range(1, 9):
            key = (q, d)
            i_d = eng._key_id(key)
            fns = {"phi": basis_function(key), "phis": basis_function(key).compose(curve.sigma)}
            sq = images[support.index(q)]
            for i, p in enumerate(support):
                points.add((q is INF, p is INF, p == q, p == sq, q is not INF and sq is INF))
                val = min(fns["phi"].order_at(p), fns["phis"].order_at(p))
                for order in (val - 3, val - 1, val, val + 1, val + 6):
                    for kind, fn in fns.items():
                        want = _series_fields(expand_ratfunc(fn, p, order))
                        # a fresh engine builds the series through order
                        fresh = TopRecEngine(curve)
                        got = fresh._expansion(i, order, (kind, i_d))
                        assert _series_fields(got) == want, (kind, key, p, order)
                        # a used one may hold a longer one, which reads the same
                        got = eng._expansion(i, order, (kind, i_d))
                        assert _series_fields(got.truncate(order)) == want, (kind, key, p, order)
    # keys at INF and at finite places, at INF and at finite points, with p
    # equal to q and to sigma(q); on xy, a finite q with sigma(q) = INF
    # (a - q c = 0 in sigma(t) = (a t + b) / (c t + e))
    assert {(True, True), (False, True), (True, False), (False, False)} == {pt[:2] for pt in points}
    assert any(pt[2] for pt in points) and any(pt[3] for pt in points)
    assert any(pt[4] for pt in points) == (name == "xy")


def _residue_inputs():
    # u^-2 + u^-1, exact through u^-1, against the vector series a + 2a u:
    # the u^-1 coefficient of the product is 1 * 2 + 1 * 1
    scalar = (-2, 1, [1, 1])
    vec = ([[("a", 1)], [("a", 2)]], 1)
    assert _residue([vec], scalar, -1, 1, Fraction(0)) == (1, {("a",): 3})
    return scalar, vec


def test_residue_raises_on_a_scalar_one_order_short():
    (val, den, nums), vec = _residue_inputs()
    with pytest.raises(AssertionError, match="residue at 0 needs the scalar"):
        _residue([vec], (val, den, nums[:1]), -1, 1, Fraction(0))


def test_residue_raises_on_a_vector_one_term_short():
    scalar, vec = _residue_inputs()
    with pytest.raises(AssertionError, match="residue at 0 needs 2 terms of each vector factor"):
        _residue([vec, (vec[0][:1], 1)], scalar, -1, 1, Fraction(0))


_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def _residue_draws(draw):
    # a scalar known through u^target and 1-3 vector factors of top + 1 or
    # more terms over a few keys, with mixed denominators and signs
    val = draw(st.integers(-6, 2))
    target = draw(st.integers(val, val + 6))
    top = target - val
    coeffs = draw(st.lists(_fractions, min_size=1, max_size=top + 3))
    scalar = TruncSeries(QQ, val, coeffs, draw(st.integers(target, target + 3)))
    part = st.dictionaries(st.sampled_from("abcd"), _fractions, max_size=3)
    factors = draw(st.lists(st.lists(part, min_size=top + 1, max_size=top + 3), min_size=1, max_size=3))
    return factors, scalar, target, draw(st.sampled_from([1, -1]))


def _int_scalar(s):
    # (val, den, nums) of a TruncSeries, one numerator per power through its order
    return s.val, s.den, s.nums + [0] * (s.order - s.val + 1 - len(s.nums))


def _int_factor(vec):
    # ([[(key, numerator)] per power], den) of a vector series of Fraction dicts
    den, nums = QQ.split([c for part in vec for c in part.values()])
    it = iter(nums)
    return [[(b, next(it)) for b in part] for part in vec], den


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_residue_draws())
def test_residue_matches_a_fraction_fold(draw):
    factors, scalar, target, sign = draw
    # reference: every choice of one power and one key per factor, in Fractions
    want = defaultdict(Fraction)
    terms = [((), 0, Fraction(sign))]
    for vec in factors:
        terms = [(keys + (b,), j + m, c * vc)
                 for keys, j, c in terms for m, part in enumerate(vec) for b, vc in part.items()]
    for keys, j, c in terms:
        want[keys] += c * scalar.coefficient(target - j)
    den, nums = _residue([_int_factor(vec) for vec in factors], _int_scalar(scalar),
                         target, sign, Fraction(0))
    assert isinstance(den, int) and den > 0
    assert all(type(v) is int and v for v in nums.values())
    assert {k: Fraction(v, den) for k, v in nums.items()} == {k: v for k, v in want.items() if v}


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


def test_diff_recursion_check_evaluates_each_value_once(catalan_engine, monkeypatch):
    _, eng = catalan_engine
    points = DIFF_SAMPLE_POINTS[:2]
    assert eng.diff_recursion_check(1, 3, points)  # fill the tables first
    calls = []
    call = RatFunc.__call__

    def counted(self, x):
        calls.append((id(self), x))
        return call(self, x)

    monkeypatch.setattr(RatFunc, "__call__", counted)
    assert eng.diff_recursion_check(1, 3, points)
    assert len(calls) == len(set(calls)) == 30


def test_diff_recursion_range_guard(airy_engine):
    _, eng = airy_engine
    with pytest.raises(ValueError, match="2g-2\\+n >= 2"):
        eng.diff_recursion_check(1, 1, [])


def test_diff_recursion_check_reduces_once_per_table(catalan_engine, monkeypatch):
    # each symbolic-slot table sums to one linear form over its basis keys,
    # reduced once, not once per monomial (which took 452 gcd calls here)
    _, eng = catalan_engine
    points = DIFF_SAMPLE_POINTS[:2]
    assert eng.diff_recursion_check(1, 3, points)  # fill the tables first
    calls = []
    gcd = Poly.gcd

    def counted(self, other):
        calls.append(1)
        return gcd(self, other)

    monkeypatch.setattr(Poly, "gcd", counted)
    assert eng.diff_recursion_check(1, 3, points)
    assert len(calls) <= 33


@pytest.mark.parametrize("name", ["airy", "catalan"])
@pytest.mark.parametrize("g, n, drop", [(0, 4, 0), (0, 4, 1), (1, 3, 0), (1, 3, 1)])
def test_diff_recursion_check_fails_on_a_perturbed_table(name, g, n, drop, request, monkeypatch):
    # negative control: one int numerator of F(g, n) or F(g, n - 1) moved
    # by one, which moves its coefficient by 1 / den
    _, eng = request.getfixturevalue(f"{name}_engine")
    points = DIFF_SAMPLE_POINTS[: n - 1]
    assert eng.diff_recursion_check(g, n, points)
    target = (g, n - drop)
    tab = eng.W(*target)
    M = next(iter(tab.ids))
    perturbed = toprec.SymTable(tab.n, tab.den, {**tab.ids, M: tab.ids[M] + 1}, eng._keys_of)
    assert perturbed.table != tab.table
    monkeypatch.setitem(eng._memo, ("_compute_w", *target), perturbed)
    assert not eng.diff_recursion_check(g, n, points)


@pytest.mark.parametrize("name, bad", [("airy", Fraction(0)), ("catalan", Fraction(0)),
                                       ("catalan", Fraction(1)), ("catalan", Fraction(-1))])
def test_diff_recursion_check_rejects_support_points(name, bad, request):
    # a zero or pole of Omega is a ValueError (CLI exit 2), not a division by zero
    _, eng = request.getfixturevalue(f"{name}_engine")
    with pytest.raises(ValueError, match="recursion support"):
        eng.diff_recursion_check(0, 4, [bad, Fraction(3), Fraction(5)])
    with pytest.raises(ValueError, match="recursion support"):
        eng.diff_recursion_check(1, 3, [Fraction(3), bad])


@pytest.mark.parametrize("values", [[2, 3, 5, 7], [2, 3], [None, None, 5]],
                         ids=["too-many", "too-few", "two-symbolic"])
def test_f_evaluate_rejects_bad_values(airy_engine, values):
    _, eng = airy_engine
    values = [None if v is None else Fraction(v) for v in values]
    with pytest.raises(ValueError):
        eng.f_evaluate(0, 3, values)
    with pytest.raises(ValueError):
        eng._eval_table(eng.W(0, 3), [("primitive", v) for v in values])
    # and an unknown gauge, at a point or symbolic
    for point in (Fraction(2), None):
        slots = [("primitive", Fraction(3)), ("primitive", Fraction(5)), ("even", point)]
        with pytest.raises(ValueError, match="not a gauge"):
            eng._eval_table(eng.W(0, 3), slots)


def test_column_cache_is_keyed_by_gauge(catalan_engine):
    # one columns dict shared by a primitive and an odd evaluation of W(0, 3)
    # at (3, 5, 7): each reads its own gauge, as on a fresh dict
    _, eng = catalan_engine
    tab, points = eng.W(0, 3), [Fraction(3), Fraction(5), Fraction(7)]
    columns = {}
    for gauge, want in (("primitive", Fraction(-424, 35)), ("odd", Fraction(-5513, 840))):
        slots = [(gauge, z) for z in points]
        assert eng._eval_table(tab, slots, columns) == eng._eval_table(tab, slots) == want, gauge


@pytest.mark.parametrize("name", ["airy", "catalan"])
def test_symbolic_slot_evaluates_like_a_point(name, request):
    _, eng = request.getfixturevalue(f"{name}_engine")
    z = Fraction(2)
    for level in range(1, 5):
        for g in range(level // 2 + 2):
            n = level + 2 - 2 * g
            if n < 1:
                continue
            pts = DIFF_SAMPLE_POINTS[: n - 1]
            want = eng.f_evaluate(g, n, [z] + pts)
            first = eng.f_evaluate(g, n, [None] + pts)
            last = eng.f_evaluate(g, n, pts + [None])
            assert isinstance(first, RatFunc) and isinstance(last, RatFunc)
            assert first(z) == last(z) == want, (g, n)


def test_principal_specialization_m2(airy_engine, airy_spec):
    curve, eng = airy_engine
    st = wkb_state_for(airy_spec, depth=2, order=8)
    bm = matching_branch_map(curve, INF, 2, st.S_prime[0], 12)
    s2 = eng.principal_specialize(2, bm)
    # F_{1,1} + F_{0,3}/3! = -5 t^3/384 = -(5/48) x^(-3/2)
    assert dict(s2.body.items()) == {3: Fraction(-5, 48)}
    assert s2.body.eq_through(st.S[2].body, 8)


@pytest.mark.parametrize("name,e,log", [("airy", 2, "log(t^2)"), ("catalan", 1, "log(t)")])
def test_principal_specialization_names_the_chart(name, e, log):
    # the chart tau^e = 1/x of the section, the local degree of x at the
    # normalization point, and the one the WKB S_2 it is compared with has
    spec = load_curve(name)
    curve, eng = engine_for(spec)
    assert curve.local_degree() == e
    s2 = eng.principal_specialize(2, branch_maps(curve, INF, e, 8)[0])
    assert s2.e == e and repr(s2).startswith(f"(0)*{log} + ")
    wkb_s2 = wkb_state_for(spec, depth=2, order=4).S[2]
    assert repr(wkb_s2).startswith(f"(0)*{log} + ")


def test_catalan_mu_coefficient_raises_on_a_short_section(catalan_engine):
    curve, eng = catalan_engine
    mu = (1, 1, 2)
    want = catalan_mu_coefficient(eng, curve, 0, 3, mu)
    section = branch_maps(curve, INF, 1, 12)[0]
    assert catalan_mu_coefficient(eng, curve, 0, 3, mu, section) == want
    # the primitives at a section known through x^-1 are known through
    # x^-1: the coefficient of x^-2 was never computed
    with pytest.raises(ValueError, match="beyond guaranteed order 1"):
        catalan_mu_coefficient(eng, curve, 0, 3, mu, section.truncate(1))


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
    return ParamCurve(x, y, rf([0, -1]), Fraction(0))


def xy_family(rng):
    # x = z + c/z with c = d^2: curve y^2 + x y + c = 0, sigma(z) = c/z
    d = Fraction(rng.randint(1, 4))
    c = d * d
    x = rf([c, 0, 1], [0, 1])
    y = rf([0, -1])
    sigma = rf([c], [0, 1])
    return ParamCurve(x, y, sigma, None)


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

    cfg = WkbConfig(a1, a2, INF, branch="plus", order=14, depth=3)
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
    calls = []

    def value(key, i):
        calls.append((key, i))
        c = table[6 * "abc".index(key) + i]
        if i != last:
            return c
        # c / (t + index of key): one rational function per key
        return rf([c], ["abc".index(key), 1])

    form = arrangement_sum(tuple(M), value, last)
    # a linear form over the keys of M; the open slot is never evaluated
    assert set(form) == set(M)
    assert all(isinstance(w, (int, Fraction)) for w in form.values())
    assert len(calls) == len(set(calls)) == len(set(M)) * (len(M) - 1)
    assert all(i != last for _, i in calls)
    got = sum((w * value(key, last) for key, w in form.items()), RatFunc.const(0))
    assert got == _brute_arrangement_sum(M, value)


def _reference_eval(eng, tab, values, gauges):
    """The public table at values (None: the symbolic slot), slot i read in
    the gauge gauges[i], each monomial summed over its orderings by
    ``_brute_arrangement_sum`` in Fractions; a symbolic slot collects one
    Fraction weight per basis key first."""
    fns, at = {}, {}
    gauge_fns = {"basis": basis_function, "primitive": eng.f_primitive, "odd": eng._odd_primitive}

    def fn(key, i):
        if (key, i) not in fns:
            fns[key, i] = gauge_fns[gauges[i]](key)
        return fns[key, i]

    def value(key, i):
        if (key, i) not in at:
            at[key, i] = fn(key, i)(values[i])
        return at[key, i]

    if None not in values:
        return sum(c * _brute_arrangement_sum(M, value) for M, c in tab.items())
    slot = values.index(None)
    others = [i for i in range(tab.n) if i != slot]
    weights = defaultdict(Fraction)
    for M, c in tab.items():
        for key in set(M):
            rest = list(M)
            rest.remove(key)
            weights[key] += c * _brute_arrangement_sum(rest, lambda k, j: value(k, others[j]))
    return sum((w * fn(key, slot) for key, w in weights.items()), RatFunc.const(0))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(["airy", "catalan"]), level=st.integers(1, 4), data=st.data())
def test_eval_table_matches_a_fraction_reference(airy_engine, catalan_engine, name, level, data):
    # random rationals off the support and its sigma-images, negatives and
    # non-integers included; every slot at a point, then each slot symbolic
    curve, eng = airy_engine if name == "airy" else catalan_engine
    (g, n), tab = data.draw(st.sampled_from(eng.compute_level(level)))
    point = st.fractions(min_value=-12, max_value=12, max_denominator=9).filter(
        lambda z: z not in curve.support and curve.sigma_at(z) not in curve.support)
    points = data.draw(st.lists(point, min_size=n, max_size=n))
    gauges = data.draw(st.lists(st.sampled_from(["basis", "primitive", "odd"]), min_size=n, max_size=n))
    for slot in [None, *range(n)]:
        values = [None if i == slot else z for i, z in enumerate(points)]
        got = eng._eval_table(tab, list(zip(gauges, values)))
        assert isinstance(got, Fraction if slot is None else RatFunc)
        assert got == _reference_eval(eng, tab, values, gauges), (g, n, slot)


def _three_branch_placements(rest, extras):
    # the scatter multiplier of _compute_w before _placements: one branch per
    # number of coupled keys
    if not extras:
        return 1
    if len(extras) == 1:
        return rest.count(extras[0]) + 1
    r1, r2 = extras
    full = rest + extras
    return full.count(r1) * (full.count(r2) - (1 if r1 == r2 else 0))


_PLACEMENT_KEYS = [(INF, 2), (INF, 4), (Fraction(-1), 3)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rest=st.lists(st.sampled_from(_PLACEMENT_KEYS), max_size=6),
       extras=st.lists(st.sampled_from(_PLACEMENT_KEYS), max_size=3))
def test_placements_count_slot_assignments(rest, extras):
    rest, extras = tuple(sorted(rest, key=key_sort)), tuple(extras)
    full = rest + extras
    # brute force: a distinct slot of rest + extras for each coupled key in
    # turn, holding that key
    brute = sum(1 for slots in permutations(range(len(full)), len(extras))
                if all(full[i] == r for i, r in zip(slots, extras)))
    assert _placements(rest, extras) == brute
    if len(extras) <= 2:
        assert _three_branch_placements(rest, extras) == brute


def _fraction_sigma_powers(curve, p, order):
    # the powers l^m of sigma's local coordinate l, expanded at p through
    # u^order, as {m: {j: Fraction}}: TruncSeries products of its expansion
    pp = _eval_extended(curve.sigma, p)
    s = _local_coordinate(curve.sigma, p, pp, order)
    out, power = {}, TruncSeries.const(QQ, 1, order)
    while power.val <= order:
        out[len(out)] = dict(power.items())
        power = power * s
    return pp, out


def _reference_kernel_vectors(curve, p, order):
    # 1/(t1 - sigma(z)) - 1/(t1 - z), one hand-written loop per case
    kv = [defaultdict(Fraction) for _ in range(order + 1)]
    if p is INF:
        for k in range(order):
            kv[k + 1][(INF, k + 2)] += 1
    else:
        for k in range(order + 1):
            kv[k][(p, k + 1)] -= 1
    pp, powers = _fraction_sigma_powers(curve, p, order)
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


def _reference_coupled_vectors(curve, p, order, side):
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
    pp, powers = _fraction_sigma_powers(curve, p, order)
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


def _decoded(eng, vec):
    # the engine's (vec, den) keyed by basis keys instead of their ints, as
    # Fractions; den is the least common denominator of the vector
    pairs, den = vec
    assert gcd(den, *[c for part in pairs for _, c in part]) == 1
    return [{eng._key_of(b): Fraction(c, den) for b, c in part} for part in pairs]


def _nonzero(vec):
    return [{k: c for k, c in part.items() if c} for part in vec]


# xy: sigma(z) = c / z, whose local powers have denominators
@pytest.mark.parametrize("name", ["airy", "catalan", "xy"])
def test_pole_vectors_match_reference_loops(name):
    eng = _engine_named(name)
    for i, p in enumerate(eng.curve.support):
        for order in (1, 2, 5, 12, 34):
            assert (_decoded(eng, eng._kernel_vectors(i, order))
                    == _nonzero(_reference_kernel_vectors(eng.curve, p, order))), (p, order)
            for side in ("z", "s"):
                assert (_decoded(eng, eng._coupled_vectors(i, order, side))
                        == _nonzero(_reference_coupled_vectors(eng.curve, p, order, side))), (p, order, side)


def test_reads_leave_no_reference_cycles(catalan_engine):
    curve, eng = catalan_engine
    points = DIFF_SAMPLE_POINTS

    bm = branch_maps(curve, INF, 1, 12)[0]

    def reads():
        catalan_mu_coefficient(eng, curve, 0, 3, (1, 1, 2))
        eng.principal_specialize(4, bm)
        branch_maps(curve, INF, 1, 20)
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


def test_principal_specialize_builds_each_power_table_once(monkeypatch, catalan_engine, airy_engine):
    # one power table per place of the level's keys: one inverse (s - q)^-1
    # per finite place and (largest exponent - 1) products per place; no
    # primitive goes through ratfunc_at_series
    calls = []
    for attr in ("inverse", "__mul__"):
        orig = getattr(TruncSeries, attr)
        monkeypatch.setattr(TruncSeries, attr, lambda *a, _f=orig, _n=attr: calls.append(_n) or _f(*a))
    monkeypatch.setattr(toprec, "ratfunc_at_series", lambda f, s: calls.append("ratfunc_at_series"))
    for (curve, eng), e, m in ((catalan_engine, 1, 4), (catalan_engine, 1, 5), (airy_engine, 2, 5)):
        bm = branch_maps(curve, INF, e, 12)[0]
        top = {}
        for g in range((m - 1) // 2 + 2):
            if m + 1 - 2 * g >= 1:
                for M, _ in eng.F(g, m + 1 - 2 * g).items():
                    for q, d in M:
                        top[q] = max(top.get(q, 0), d - 1)
        calls.clear()
        eng.principal_specialize(m, bm)
        assert sorted(calls) == sorted(["__mul__"] * sum(k - 1 for k in top.values())
                                       + ["inverse"] * sum(q is not INF for q in top)), (m, top)


def _old_antiderivative(key, normpt):
    # the RatFunc construction primitive_fractions replaced
    q, d = key
    if q is INF:
        if normpt is INF:
            raise ValueError("cannot normalize a polynomial primitive at infinity")
        prim = RatFunc(Poly([0] * (d - 1) + [Fraction(1, d - 1)]))
        return prim - RatFunc.const(prim(normpt))
    if d == 1:
        raise ValueError("first-order pole integrates to a log in the stable range")
    prim = RatFunc(Poly.const(Fraction(-1, d - 1)), poly_pow(Poly([-q, 1]), d - 1))
    return prim if normpt is INF else prim - RatFunc.const(prim(normpt))


def _gauge_engine(family, seed):
    if family in ("airy", "catalan"):
        return engine_for(load_curve(family))[1]
    curve = (scaled_airy if family == "scaled_airy" else xy_family)(random.Random(seed))
    curve.normpt = Fraction(0)  # xy_family leaves it open; z = 0 lies over x = inf
    return TopRecEngine(curve)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(family=st.sampled_from(["airy", "catalan", "scaled_airy", "xy_family"]), seed=st.integers(0, 30))
def test_gauge_fractions_match_the_ratfunc_constructions(family, seed):
    # every key of levels 1-4: the basis function by poly_pow, the primitive
    # as basis_antiderivative built it, and the odd gauge by composition
    # with sigma; xy_family's sigma = c / z expands by the binomial theorem
    eng = _gauge_engine(family, seed)
    curve = eng.curve
    keys = {key for level in range(1, 5) for _, tab in eng.compute_level(level) for M in tab.table
            for key in M}
    for key in keys:
        q, d = key
        if q is INF:
            basis = RatFunc(Poly([0] * (d - 2) + [1])) if d > 2 else RatFunc.const(1)
        else:
            basis = RatFunc(Poly.const(1), poly_pow(Poly([-q, 1]), d))
        prim = _old_antiderivative(key, curve.normpt)
        odd = (prim - prim.compose(curve.sigma)) * RatFunc.const(Fraction(1, 2))
        wants = {"basis": basis, "primitive": prim, "odd": odd}
        for gauge, fn in (("basis", basis_function), ("primitive", eng.f_primitive),
                          ("odd", eng._odd_primitive)):
            assert ratfunc_of_fractions(eng.fractions(gauge, key)) == wants[gauge], (key, gauge)
            assert fn(key) == wants[gauge], (key, gauge)


@pytest.mark.parametrize("key,normpt", [((INF, 3), INF), ((Fraction(2), 1), Fraction(0)),
                                        ((Fraction(2), 3), Fraction(2)), ((INF, 1), Fraction(1))])
def test_primitive_fractions_raise_where_the_antiderivative_raises(key, normpt):
    with pytest.raises((ValueError, ZeroDivisionError)) as old:
        _old_antiderivative(key, normpt)
    with pytest.raises(old.type):
        primitive_fractions(key, normpt)


def _outcome(fn):
    # the series' fields, or the type of what it raised
    try:
        return _series_fields(fn())
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


_SECTION_SUPPORT = [Fraction(-1), Fraction(0), Fraction(1, 2), INF]


@settings(derandomize=True, max_examples=250, deadline=None)
@given(normpt=st.sampled_from(_SECTION_SUPPORT + [Fraction(3)]), val=st.sampled_from([-1, 0]),
       coeffs=st.lists(st.fractions(-5, 5, max_denominator=4), min_size=1, max_size=10),
       extra=st.integers(0, 2), data=st.data())
def test_primitive_series_matches_ratfunc_at_series(normpt, val, coeffs, extra, data):
    # random sections over QQ of val -1 and 0; at val 0 the constant term
    # may sit on the normalization point or on a place of the keys (and at
    # 0 the section has val 1); short sections reach the raising branches
    eng = TopRecEngine(SimpleNamespace(support=_SECTION_SUPPORT, normpt=normpt))
    if val == 0:
        coeffs[0] = data.draw(st.sampled_from([coeffs[0]] + [p for p in _SECTION_SUPPORT + [normpt]
                                                             if p is not INF]))
    assume(coeffs[0] or val == 0)
    s = TruncSeries(QQ, val, coeffs, val + len(coeffs) - 1 + extra)
    ids = data.draw(st.lists(st.builds(lambda q, d: eng._key_id((q, d)), st.sampled_from(_SECTION_SUPPORT),
                                       st.integers(1, 8)), min_size=1, max_size=6))
    wants = {}
    for b in ids:
        want = _outcome(lambda: ratfunc_at_series(eng.f_primitive(eng._key_of(b)), s))
        assert _outcome(lambda: eng.primitive_series([b], s)[b]) == want, eng._key_of(b)
        wants[b] = want
    if all(isinstance(w, tuple) for w in wants.values()):
        together = eng.primitive_series(ids, s)
        assert {b: _outcome(lambda: together[b]) for b in ids} == wants


def test_primitive_series_takes_qq_only(catalan_engine):
    _, eng = catalan_engine
    with pytest.raises(ValueError):
        eng.primitive_series([eng._key_id((INF, 2))], TruncSeries.uniformizer(QuadExtField(2), 4))


def _truncseries_at(f, s):
    # the TruncSeries Horner loops that ratfunc_at_series runs on ints
    out = []
    for p in (f.num, f.den):
        acc = TruncSeries.zero(QQ, s.order - max(0, -s.val) * p.degree)
        for c in reversed(p.coeffs):
            acc = acc * s + c
        out.append(acc)
    return out[0] / out[1]


def _fields(s):
    return s.val, s.coeffs, s.order


def _specialize_per_monomial(eng, m, bm):
    out, prims = TruncSeries.zero(QQ, bm.order), {}
    for (g, n), fgn in eng.compute_level(m - 1):
        for M, c in fgn.items():
            term = TruncSeries.const(QQ, c * Fraction(toprec._permutation_count(M), factorial(n)), bm.order)
            for key in M:
                if key not in prims:
                    prims[key] = _truncseries_at(eng.f_primitive(key), bm)
                term = term * prims[key]
            out = out + term
    return out


# (curve, e) over x = inf; the walk's products at catalan levels 4 and 5
# (S_5, S_6), against 470 and 1,388 in the per-monomial loop: one per
# distinct prefix of two or more keys
SPECIALIZE_CASES = [("airy", 2), ("catalan", 1), ("hermite", 1)]
PREFIX_PRODUCTS = {("catalan", 5): 147, ("catalan", 6): 364}


@pytest.mark.parametrize("name,e", SPECIALIZE_CASES)
def test_principal_specialize_matches_the_per_monomial_sum(name, e, monkeypatch):
    curve, eng = engine_for(load_curve(name))
    # the int convolutions of monomial_sum, not those that evaluate primitives
    products, summing = [], []
    convolve, monomial_sum = series_module._int_convolve, toprec.monomial_sum

    def counted(a, b, n):
        if summing:
            products.append(n)
        return convolve(a, b, n)

    def summed(*args):
        summing.append(True)
        try:
            return monomial_sum(*args)
        finally:
            summing.clear()

    monkeypatch.setattr(series_module, "_int_convolve", counted)
    monkeypatch.setattr(toprec, "monomial_sum", summed)
    for m in range(2, 7):
        for bm in branch_maps(curve, INF, e, 3 * m + 6):
            want = _fields(_specialize_per_monomial(eng, m, bm))  # fills the tables
            products.clear()
            got = eng.principal_specialize(m, bm)
            assert (got.lam, _fields(got.body)) == (0, want)
            assert len(products) <= PREFIX_PRODUCTS.get((name, m), len(products))


# scaled_airy's sections over x = inf need a square a: a = 4 at seed 0, 1 at 2
@pytest.mark.parametrize("builder,seed,e", [(scaled_airy, 0, 2), (scaled_airy, 2, 2),
                                            (xy_family, 5, 1), (xy_family, 9, 1)])
def test_principal_specialize_matches_the_per_monomial_sum_on_families(builder, seed, e):
    curve = builder(random.Random(seed))
    curve.normpt = Fraction(0)  # xy_family leaves it open; z = 0 lies over x = inf
    eng = TopRecEngine(curve)
    for m in (2, 3, 4):
        for bm in branch_maps(curve, INF, e, 3 * m + 4):
            assert _fields(eng.principal_specialize(m, bm).body) == _fields(_specialize_per_monomial(eng, m, bm))


# sha256 of the branch sections of the builtin parametrizations, recorded
# when branch_maps still composed x with t0 + s (or 1/s) and reverted the
# expansion one coefficient per composition; catalan is hermite's curve
BRANCH_MAP_SHA256 = {
    ("airy", 4): "43411582c529ebea447ea6fcb88651df3f84c27b923cfc812716c073378c54a1",
    ("airy", 9): "4ba264454c5bfad07344358cecb0aacfee4283a5836e47841dac0b4970856b44",
    ("airy", 14): "5faac1ffc3f73626c5aa405f430006508b7324d42201abf5f49781153e75b181",
    ("airy", 25): "1928ac1ad1e8c6dbb0222f4c57a67dfe5645b1de6e0e2e881a06016067692caa",
    ("airy", 40): "e42451500eb1d431a53401a666b6305841e7f79d986d341d3ce7d5c83ae4ba97",
    ("catalan", 4): "409f9418037da35522f6e325a107b079369b65b79c956b3ee19949cf8915ec65",
    ("catalan", 9): "c72d2a0849917119f7a59497a186d0a53bcfd5d596f0305f41e4559c137bd51e",
    ("catalan", 14): "fcb267e23d877704ac480c65dcf3f573f3e8b94a15961aa2511d672cfbf75862",
    ("catalan", 25): "da199e6418d5de1861cd3057378d76352714d0103f9122a70bc1083c7dffc89f",
    ("catalan", 40): "5b832b8d71ec0e191d6dc7995125a957d11b4687709c06cae3a3661655635b6a",
}


def _sections_text(sections, e):
    # e is the chart of the sections, written as the series once carried it
    return "\n".join(f"{s.val} {s.order} {e} t {[str(c) for c in s.coeffs]}"
                     for s in sections)


@pytest.mark.parametrize("name,e", [("airy", 2), ("catalan", 1), ("hermite", 1)])
def test_branch_map_bytes_unchanged(name, e):
    curve, _ = engine_for(load_curve(name))
    for order in (4, 9, 14, 25, 40):
        text = _sections_text(branch_maps(curve, INF, e, order), e)
        key = ("catalan" if name == "hermite" else name, order)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BRANCH_MAP_SHA256[key]


def _composed_branch_maps(curve, place, e, order):
    # the construction branch_maps replaced: compose x with t0 + s (1/s at
    # INF) in rational-function algebra, then expand at s = 0
    t0 = curve.normpt
    X = curve.x.compose(rf([1], [0, 1]) if t0 is INF else rf([t0, 1]))
    w = RatFunc.const(1) / X if place is INF else X - RatFunc.const(place)
    wser = expand_ratfunc(w, Fraction(0), order + 4)
    roots = [wser] if e == 1 else [wser.sqrt(), -wser.sqrt()]
    outs = []
    for r in roots:
        s = r.reversion()
        t = s.inverse() if t0 is INF else s + TruncSeries.const(QQ, Fraction(t0), s.order)
        outs.append(t)
    return outs


def test_branch_map_at_normalization_point_inf(airy_spec, catalan_spec):
    # airy and catalan moved by t -> 1/t and t -> -1 + 1/t, which carry their
    # normalization points 0 and -1 to INF
    airy, _ = engine_for(airy_spec)
    catalan, _ = engine_for(catalan_spec)
    mobius = rf([1, -1], [0, 1])
    cases = [
        (ParamCurve(rf([0, 0, 4]), rf([0, -2]), rf([0, -1]), INF, spectral=airy_spec.sd),
         airy, 2, lambda t: t.inverse()),
        (ParamCurve(catalan.x.compose(mobius), catalan.y.compose(mobius), rf([0, 1], [-1, 2]),
                    INF, spectral=catalan_spec.sd),
         catalan, 1, lambda t: (t + 1).inverse()),
    ]
    for curve, original, e, move in cases:
        for order in (4, 13, 30):
            got = branch_maps(curve, INF, e, order)
            assert _sections_text(got, e) == _sections_text(_composed_branch_maps(curve, INF, e, order), e)
            for s, t in zip(got, branch_maps(original, INF, e, order)):
                assert s.eq_through(move(t))
