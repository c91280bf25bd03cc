import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quantcurve import cli
from quantcurve import wkb as wkb_module
from quantcurve.algebra import INF, LogSeries, QuadExtField, RatFunc, TruncSeries, expand_ratfunc
from quantcurve.curvespec import load_curve, parse_curve_spec, serialize_report
from quantcurve.verify import wkb_state_for
from quantcurve.wkb import (
    WkbConfig,
    _ddx,
    assemble_wavefunction,
    semiclassical_root,
    solve_wkb,
    verify_operator,
    wkb_extend,
)


def rf(num, den=(1,)):
    return RatFunc.from_coeffs(num, den)


AIRY = (rf([0]), rf([0, -1]))
HERMITE = (rf([0, 1]), rf([1]))
GAUSS = (rf([-1, 2], [0, -1, 1]), rf([1], [0, -4, 4]))


def test_airy_golden():
    cfg = WkbConfig(*AIRY, INF, branch="minus", order=12, depth=2)
    st = solve_wkb(cfg)
    s0, s1, s2 = st.S
    assert s0.lam == 0 and dict(s0.body.items()) == {-3: Fraction(-2, 3)}
    assert s1.lam == Fraction(1, 4) and s1.body.is_zero()
    assert s2.lam == 0 and dict(s2.body.items()) == {3: Fraction(-5, 48)}


def test_airy_oddness_parity():
    cfg = WkbConfig(*AIRY, INF, branch="minus", order=24, depth=6)
    st = solve_wkb(cfg)
    for m in range(2, 7):
        terms = dict(st.S[m].body.items())
        # a single monomial at tau^(3(m-1)): the parity forced by homogeneity
        assert set(terms) == {3 * (m - 1)}, (m, terms)


def test_airy_branch_swap_vieta():
    minus = solve_wkb(WkbConfig(*AIRY, INF, branch="minus", order=10, depth=0))
    plus = solve_wkb(WkbConfig(*AIRY, INF, branch="plus", order=10, depth=0))
    a1s = minus.a1s
    a2s = minus.a2s
    total = plus.S_prime[0] + minus.S_prime[0]
    assert (total + a1s).is_zero()
    prod = plus.S_prime[0] * minus.S_prime[0]
    assert (prod - a2s).is_zero()


def test_catalan_golden():
    cfg = WkbConfig(*HERMITE, INF, branch="plus", order=13, depth=1)
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
    cfg = WkbConfig(*GAUSS, Fraction(0), branch="plus", order=8, depth=2)
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
    # the discriminant 4x has a simple zero at 0: the chart is tau^2 = x,
    # fixed by the operator and not settable
    st = solve_wkb(WkbConfig(*AIRY, Fraction(0), branch="plus", order=6, depth=1))
    assert st.config.e == 2
    assert verify_operator(st)["ok"]
    with pytest.raises(TypeError):
        WkbConfig(*AIRY, Fraction(0), e=1)


def test_field_extension_on_demand():
    # discriminant 4*3x at infinity: leading coefficient 12 is not a square
    cfg = WkbConfig(rf([0]), rf([0, -3]), INF, branch="minus", order=8, depth=2)
    st = solve_wkb(cfg)
    assert isinstance(st.field, QuadExtField)
    sq = st.S_prime[0] * st.S_prime[0]
    assert sq.eq_through(st.a2s * (-1), 6)
    assert verify_operator(st)["ok"]


def test_surd_hierarchy_builds_elements_only_on_read(monkeypatch):
    # over QQ(sqrt d) the series keep int pairs: elements are built where a
    # leading coefficient or a log term is read, a few per depth, not one
    # per coefficient (501 in the S_m' here)
    import quantcurve.algebra.fields as fields_module

    built = []
    init = fields_module.QuadExtElement.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    spec = load_curve("smooth")
    monkeypatch.setattr(fields_module.QuadExtElement, "__init__", counted)
    st = wkb_state_for(spec, place=Fraction(0), depth=6, tau_order=40)
    assert verify_operator(st)["ok"]
    monkeypatch.undo()
    assert isinstance(st.field, QuadExtField)
    assert sum(len(s.nums) for s in st.S_prime) > 400 and len(built) <= 5 * (st.depth + 1)


def test_verify_operator_golden():
    st = solve_wkb(WkbConfig(*AIRY, INF, branch="minus", order=18, depth=4))
    rep = verify_operator(st)
    assert rep["ok"] and len(rep["levels"]) == 5
    stg = solve_wkb(WkbConfig(*GAUSS, Fraction(0), branch="plus", order=8, depth=2))
    assert verify_operator(stg)["ok"]


def test_s0_only_residual_is_consistency_term():
    st = semiclassical_root(WkbConfig(*AIRY, INF, branch="minus", order=10, depth=0))
    rep = verify_operator(st)
    assert rep["levels"][0]["zero"]
    # no S1 yet: the h^1 level is exactly S0'' which does not vanish
    st.S.append(LogSeries(0, st.S[0].body * 0))
    st.S_prime.append(st.S_prime[0] * 0)
    rep = verify_operator(st)
    assert rep["levels"][0]["zero"] and not rep["levels"][1]["zero"]


def test_truncation_exhausted():
    # the working expansion is sized for order 12 / depth 3; asking the state
    # for more afterwards is an order it cannot guarantee
    st = semiclassical_root(WkbConfig(*GAUSS, Fraction(0), branch="plus", order=12, depth=3))
    st.config.order, st.config.depth = 40, 6
    with pytest.raises(ValueError, match="truncation exhausted"):
        wkb_extend(st)


# a1 = x^-n, a2 = a1^2/4 - x/4: the pole of a1^2 cancels against 4 a2, so the
# discriminant is x, a branch point at 0; a1 a1 loses n orders of it and the
# pole of S0' costs every depth, which the working order must budget for
@pytest.mark.parametrize("n", [1, 5, 20])
@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_cancelling_pole_of_a1(n, branch):
    a1 = rf([1], [0] * n + [1])
    a2 = a1 * a1 * Fraction(1, 4) - rf([0, 1]) * Fraction(1, 4)
    for depth in (2, 6):
        cfg = WkbConfig(a1, a2, Fraction(0), branch=branch, depth=depth)
        assert (cfg.e, cfg.disc_order) == (2, 1)
        st = solve_wkb(cfg)
        assert st.depth == depth and verify_operator(st)["ok"]


def test_hermite_hbar_one_double_factorials():
    # at h = 1 the assembled series is sum (2n-1)!! / x^(2n+1), i.e. the
    # error-function asymptotics 1, 1, 3, 15, 105 after the 1/x prefactor
    st = solve_wkb(WkbConfig(*HERMITE, INF, branch="plus", order=14, depth=6))
    wave = assemble_wavefunction(st)
    one = Fraction(1)
    assert wave.prefactor_exponent.rf(one) == 1  # prefactor (1/x)^(1/h) becomes 1/x
    for n, expect in enumerate([1, 1, 3, 15, 105]):
        assert wave.coefficient(2 * n).rf(one) == expect
        if 2 * n + 1 <= wave.body.order:
            assert wave.coefficient(2 * n + 1).rf(one) == 0


def test_wave_through_a_lower_order_is_the_truncation():
    # order_x below the valuation of some S_m bodies reads none of their terms
    st = solve_wkb(WkbConfig(*HERMITE, INF, branch="plus", order=14, depth=6))
    assert max(s.body.val for s in st.S) > 2
    full = assemble_wavefunction(st)
    for k in range(full.body.order + 1):
        part = assemble_wavefunction(st, order_x=k)
        assert part.body.order == k and part.prefactor_exponent == full.prefactor_exponent
        assert [part.coefficient(j) for j in range(k + 1)] == [full.coefficient(j) for j in range(k + 1)]


def test_assemble_rejects_essential_prefactor():
    st = solve_wkb(WkbConfig(*AIRY, INF, branch="minus", order=10, depth=2))
    with pytest.raises(ValueError, match="essential"):
        assemble_wavefunction(st)


def test_zero_exponent_gives_unit_wave():
    st = solve_wkb(WkbConfig(*HERMITE, INF, branch="plus", order=8, depth=2))
    for m in range(len(st.S)):
        st.S[m] = LogSeries(0, st.S[m].body * 0)
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
            cfg = WkbConfig(a1, a2, Fraction(0),
                            branch=rng.choice(["plus", "minus"]), order=8, depth=3)
            st = solve_wkb(cfg)
        except ValueError:
            continue
        assert verify_operator(st)["ok"]
        cases += 1


def test_hermite_at_finite_branch_point():
    # Puiseux chart tau^2 = x - 2 at the turning point of the Hermite operator
    cfg = WkbConfig(*HERMITE, Fraction(2), branch="plus", order=10, depth=3)
    assert cfg.e == 2
    st = solve_wkb(cfg)
    assert st.S[0].lam == 0
    assert st.S[0].body.coefficient(2) == -1
    assert st.S[0].body.coefficient(3) == Fraction(2, 3)
    # universal -(1/4) log of the uniformizer at a simple turning point
    assert st.S[1].lam == Fraction(-1, 4)
    assert verify_operator(st)["ok"]


# whole WKB reports over QQ(sqrt d), pinned by the sha256 of their CLI
# serialization: e = 1 at a finite place (d = -8), and e = 2 at a finite
# branch point whose discriminant has the non-integral leading coefficient 10/3
SURD_SPECS = {
    "e1": {"name": "surd-e1",
           "coefficients": {"a1": [["1", "1"], ["2", "-1"]], "a2": [["2", "0", "1"], ["1"]]},
           "expansion": {"place": "1/2", "order": 12, "depth": 4}},
    "e2": {"name": "surd-e2",
           "coefficients": {"a1": [["0", "1"], ["1"]], "a2": [["5/12", "0", "-1/6"], ["1"]]},
           "expansion": {"place": "1", "order": 7, "depth": 4}},
}
SURD_REPORT_SHA256 = {
    ("e1", "plus"): "cf835dfca657b6bb45baddba2dddc55a887b42a51213f8f55c93838c70266a55",
    ("e1", "minus"): "183f660ef93e47d8f2448a54c9ec989921e2200390c2e35d1f49311ddf9556f0",
    ("e2", "plus"): "b7c20dee1a8650a2574695f88c88b289a6352363ed716019a8a72f98068799a1",
    ("e2", "minus"): "3f2a1bad5b5e6d116c527a7a2693d9bf50c84d626ecc4c9baf55a6ff0104f15a",
}


@pytest.mark.parametrize("key,branch", sorted(SURD_REPORT_SHA256))
def test_surd_wkb_report_bytes_unchanged(key, branch):
    rep, _ = cli.wkb_report(parse_curve_spec(SURD_SPECS[key]), branch=branch)
    assert rep["field"] == {"e1": "QQ(sqrt(-8))", "e2": "QQ(sqrt(10/3))"}[key]
    assert rep["ramification_index"] == int(key[1])
    text = serialize_report({"report": rep})
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SURD_REPORT_SHA256[key, branch]


SMALL_POLY = st.lists(st.integers(-3, 3), min_size=1, max_size=3)


@st.composite
def random_operator(draw):
    """Small (a1, a2) with an irreducible spectral curve, at a random place."""
    a1 = RatFunc.from_coeffs(draw(SMALL_POLY), draw(st.sampled_from([[1], [1, 1], [-2, 0, 1]])))
    a2 = rf(draw(SMALL_POLY), draw(st.sampled_from([[1], [0, 1], [2, -1]])))
    disc = a1 * a1 - 4 * a2
    assume(not disc.is_zero() and disc.sqrt() is None)
    place = draw(st.sampled_from([INF, Fraction(0), Fraction(1), Fraction(-1, 2)]))
    return a1, a2, place


@settings(max_examples=80, deadline=None, derandomize=True)
@given(random_operator())
def test_random_operators_annihilated_on_both_branches(op):
    a1, a2, place = op
    plus, minus = (solve_wkb(WkbConfig(a1, a2, place, branch=b, order=8, depth=3))
                   for b in ("plus", "minus"))
    # a square-root chart exactly where the discriminant has odd order
    disc_order = (a1 * a1 - 4 * a2).order_at(place)
    assert plus.config.e == minus.config.e == (2 if disc_order % 2 else 1)
    assert verify_operator(plus)["ok"] and verify_operator(minus)["ok"]
    # both branches adjoin the same d, and so work over one field
    assert minus.field is plus.field
    # Vieta: the two roots S0' sum to -a1
    assert (plus.S_prime[0] + minus.S_prime[0] + plus.a1s).is_zero()


# a2 = x^z - x^(z+1) with a1 = 0: the discriminant -x^z + x^(z+1) has a zero
# of order z at 0, a branch point only for odd z.  An expansion through a
# fixed order reads an order-8 zero as a zero series.
@pytest.mark.parametrize("z,e", [(8, 1), (7, 2)])
def test_chart_at_high_order_discriminant_zero(z, e):
    spec = parse_curve_spec({"coefficients": {"a1": ["0"], "a2": ["0"] * z + ["1", "-1"]}})
    state = wkb_state_for(spec, place=Fraction(0), depth=1)
    assert state.config.e == e
    assert verify_operator(state)["ok"]


def _termwise_verify_operator(state):
    """The operator check summed term by term: every pair product S_a' S_b'
    over a + b = k, a, b >= 0, formed anew at each h-level k."""
    cfg = state.config
    sp = state.S_prime
    report = []
    ok = True
    for k in range(state.depth + 1):
        resid = TruncSeries.zero(state.field, sp[0].order)
        for a in range(0, k // 2 + 1):
            p = sp[a] * sp[k - a]
            resid = resid + (p if 2 * a == k else 2 * p)
        if k >= 1:
            resid = resid + _ddx(sp[k - 1], cfg.place, cfg.e)
        resid = resid + state.a1s * sp[k]
        if k == 0:
            resid = resid + state.a2s
        zero = resid.is_zero()
        report.append({"h_power": k, "zero": zero, "through_order": resid.order})
        ok = ok and zero
    return {"ok": ok, "levels": report}


# a branch point over QQ (e = 2), a surd at a branch point (QQ(sqrt 3), e = 2)
# and a surd away from one (QQ(sqrt -8), e = 1), whatever the draws give
@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_operator(), st.integers(0, 4))
@example((AIRY[0], AIRY[1], Fraction(0)), 4)
@example((rf([0]), rf([0, -3]), INF), 4)
@example((rf([1, 1], [2, -1]), rf([2, 0, 1]), Fraction(1, 2)), 4)
def test_one_product_per_level_matches_termwise_check(op, depth):
    a1, a2, place = op
    for branch in ("plus", "minus"):
        state = solve_wkb(WkbConfig(a1, a2, place, branch=branch, order=8, depth=depth))
        assert verify_operator(state) == _termwise_verify_operator(state)


def _count_series_products(monkeypatch):
    calls = []
    mul = TruncSeries.__mul__

    def counted(self, other):
        if isinstance(other, TruncSeries):
            calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    return calls


@pytest.mark.parametrize("a1,a2,surd", [(*AIRY, False), (rf([0]), rf([0, -3]), True)],
                         ids=["airy", "surd"])
def test_verify_operator_forms_one_product_per_level(a1, a2, surd, monkeypatch):
    state = solve_wkb(WkbConfig(a1, a2, INF, branch="minus", order=8, depth=6))
    assert isinstance(state.field, QuadExtField) == surd
    calls = _count_series_products(monkeypatch)
    rep = verify_operator(state)
    assert rep["ok"] and len(calls) == state.depth + 1


def _bump(series):
    """The series plus tau^val: its lowest known coefficient moved by one."""
    one = TruncSeries(series.field, series.val, [series.field.one()], series.order)
    return series + one


@pytest.mark.parametrize("a1,a2,place", [(*AIRY, INF), (*HERMITE, Fraction(2)),
                                          (rf([0]), rf([0, -3]), INF)],
                         ids=["airy", "hermite-branch", "surd"])
def test_verify_operator_catches_a_moved_coefficient(a1, a2, place):
    depth = 4
    for k in range(-1, depth + 1):
        state = solve_wkb(WkbConfig(a1, a2, place, branch="plus", order=10, depth=depth))
        assert verify_operator(state)["ok"]
        assert sorted(state._rhs) == list(range(1, depth + 1))
        if k < 0:
            state.a2s = _bump(state.a2s)
        else:
            state.S_prime[k] = _bump(state.S_prime[k])
        rep = verify_operator(state)
        # the memo still holds the sums of the unmoved S', so exactly the
        # level that reads the moved series directly fails
        moved = max(k, 0)
        assert [lv["zero"] for lv in rep["levels"]] == [j != moved for j in range(depth + 1)]
        assert not rep["ok"]


# ---------------------------------------------------------------------------
# the solver's chart sigma = tau / scale: time only, never a value


def _tau_values(state):
    """Every tau-series and log coefficient a state exposes, as values."""
    def key(s):
        return s.val, s.order, s.coeffs

    return ([key(s) for s in state.S_prime], [(s.lam, key(s.body)) for s in state.S],
            key(state.a1s), key(state.a2s), key(state.denom), state.field.name)


# the surd charts of SURD_SPECS, as operators
SURD_E2 = (rf([0, 1]), rf([Fraction(5, 12), 0, Fraction(-1, 6)]), Fraction(1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_operator(), st.sampled_from(["plus", "minus"]))
@example((AIRY[0], AIRY[1], Fraction(0)), "plus")
@example((rf([0]), rf([0, -3]), INF), "minus")
@example((rf([1, 1], [2, -1]), rf([2, 0, 1]), Fraction(1, 2)), "plus")
@example(SURD_E2, "minus")
def test_chart_scale_changes_no_value(op, branch):
    # finite and infinite places, e = 1 and 2, QQ and QQ(sqrt d): the same
    # tau-series, log coefficients and check levels whatever the scale
    a1, a2, place = op
    runs = {}
    for scale in (1, 2, 6, 3835):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wkb_module, "_chart_scale", lambda disc, s=scale: s)
            state = solve_wkb(WkbConfig(a1, a2, place, branch=branch, order=8, depth=3))
            runs[scale] = _tau_values(state), verify_operator(state)
        assert state.scale == scale
    ref = runs[1]
    assert ref[1]["ok"]
    for scale, got in runs.items():
        assert got == ref, scale


def test_chart_scale_lowers_the_denominators():
    # a QQ(sqrt(767/60)) operator of the benchmark's pool: the tau^j
    # coefficient of 1 / sqrt(disc) has a denominator of about
    # (5 13 59)^j, which the chart sigma = tau / 3835 takes out of S_6'
    a1 = rf([-3, -4, -3], [-2, -3])
    a2 = rf([2, 7, 6, 2], [3, 4, 4, 1])
    state = solve_wkb(WkbConfig(a1, a2, Fraction(-1, 2), branch="plus", order=12, depth=6))
    assert state.field.name == "QQ(sqrt(767/60))" and state.scale == 3835
    tau, sigma = state.S_prime[-1], state._sp[-1]
    assert (tau.den.bit_length(), sigma.den.bit_length()) == (594, 126)
    assert sigma.dilate(Fraction(1, 3835)).coeffs == tau.coeffs
    assert verify_operator(state)["ok"]
