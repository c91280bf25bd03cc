import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quantcurve.algebra import INF, Poly, RatFunc
from quantcurve.curvespec import load_curve
from quantcurve.lattice import count_check, lattice_from_spectral
from quantcurve.spectral import (
    Divisor,
    KSection,
    SpectralData,
    delta_invariant,
    divisor_of,
    genus_report,
    pole_profile,
)


def rf(num, den=(1,)):
    return RatFunc.from_coeffs(num, den)


def place_of(div, root):
    for p in div.items:
        if p is not INF and p.degree == 1 and -p.coeffs[0] == root:
            return p
    return None


def test_airy_discriminant():
    sd = load_curve("airy").sd
    d = sd.discriminant()
    assert d.f == rf([0, 1])
    div = divisor_of(d)
    assert div.multiplicity(place_of(div, Fraction(0))) == 1
    assert div.multiplicity(INF) == -5
    assert div.degree() == -4


def test_hermite_discriminant():
    sd = load_curve("hermite").sd
    d = sd.discriminant()
    assert d.f == rf([-1, 0, Fraction(1, 4)])
    div = divisor_of(d)
    assert div.multiplicity(place_of(div, Fraction(2))) == 1
    assert div.multiplicity(place_of(div, Fraction(-2))) == 1
    assert div.multiplicity(INF) == -6


def test_gauss_discriminant():
    sd = load_curve("gauss").sd
    d = sd.discriminant()
    assert d.f == rf([1, -3, 3], [0, 0, 4, -8, 4])
    div = divisor_of(d)
    quad = [p for p in div.items if p is not INF and p.degree == 2]
    assert len(quad) == 1 and div.items[quad[0]] == 1
    assert div.multiplicity(place_of(div, Fraction(0))) == -2
    assert div.multiplicity(place_of(div, Fraction(1))) == -2
    assert div.multiplicity(INF) == -2


def test_divisor_of_canonical():
    sec = KSection(rf([1]), 1)
    div = divisor_of(sec)
    assert div.items == {INF: -2} and div.degree() == -2


def test_divisor_of_fifth_row():
    sec = KSection(rf([-1, 0, 1, 0, 1], [1, 0, -2, 0, 1]), 2)
    div = divisor_of(sec)
    quartic = [p for p in div.items if p is not INF and p.degree == 4]
    assert len(quartic) == 1 and div.items[quartic[0]] == 1
    assert div.multiplicity(place_of(div, Fraction(1))) == -2
    assert div.multiplicity(place_of(div, Fraction(-1))) == -2
    assert div.multiplicity(INF) == -4
    assert div.degree() == -4
    assert delta_invariant(div) == 4


def test_delta_examples():
    assert delta_invariant(divisor_of(load_curve("airy").sd.discriminant())) == 2
    assert delta_invariant(divisor_of(load_curve("hermite").sd.discriminant())) == 2
    assert delta_invariant(divisor_of(load_curve("gauss").sd.discriminant())) == 2


def test_pole_profiles_golden():
    hermite = load_curve("hermite").sd
    pr = pole_profile(hermite, INF)
    assert (pr.k, pr.l, pr.r) == (3, 4, 3)
    assert not pr.regular and pr.irregular_class == 2
    assert pr.blowups_min == 1 and pr.blowups_full == 3

    gauss = load_curve("gauss").sd
    pr = pole_profile(gauss, INF)
    assert (pr.k, pr.l, pr.r) == (1, 2, 1) and pr.regular

    airy = load_curve("airy").sd
    pr = pole_profile(airy, INF)
    assert pr.k is None and pr.l == 5
    assert pr.r == Fraction(5, 2) and pr.irregular_class == Fraction(3, 2)
    assert pr.blowups_full == 3 and pr.blowups_min == 2


def test_pole_profile_requires_pole():
    airy = load_curve("airy").sd
    x1 = Poly([-1, 1])
    with pytest.raises(ValueError):
        pole_profile(airy, x1)


def test_genus_reports_golden():
    expect = {
        "airy": (5, 2, 0), "hermite": (4, 1, 0), "gauss": (4, 1, 0),
        "mixed": (4, 1, 0), "smooth": (4, 1, 1),
    }
    for name, (a, pa, pg) in expect.items():
        rep = genus_report(load_curve(name).sd)
        assert (rep.a, rep.p_a, rep.p_g) == (a, pa, pg), name
        assert rep.ns_class == (2, a)
        assert rep.p_g <= rep.p_a


@pytest.mark.parametrize("a1,a2,a,p_a,p_g", [
    # at x = 1, k = 1 and l = 2 with the discriminant pole n = 1 below l
    (rf([2], [-1, 1]), rf([0, 1], [1, -2, 1]), 4, 1, 0),
    # at inf, k = 3 and l = 6 with x^2 cancelling in a1^2/4 - a2 (n = 5)
    (rf([-1, -3, 2], [-3, 1]), rf([-1, -1, 1]), 6, 3, 1),
])
def test_lattice_genus_at_a_cancelling_pole(a1, a2, a, p_a, p_g):
    sd = SpectralData(a1, a2)
    rep = genus_report(sd)
    assert (rep.a, rep.p_a, rep.p_g) == (a, p_a, p_g)
    cc = count_check(*lattice_from_spectral(sd, rep)[:2])
    assert cc["a"] == a and cc["genus"] == p_g


SMALL_INT_POLY = st.lists(st.integers(-3, 3), min_size=1, max_size=4)
NONZERO_INT_POLY = SMALL_INT_POLY.filter(any)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SMALL_INT_POLY, NONZERO_INT_POLY, SMALL_INT_POLY, NONZERO_INT_POLY)
def test_lattice_genus_is_p_g_where_a1_squared_and_4_a2_cancel(n1, d1, nr, dr):
    # a2 = a1^2/4 - r: the discriminant is r, so every pole of a1 whose
    # order 2k is at least that of r cancels in a1^2/4 - a2
    a1 = rf(n1, d1)
    a2 = a1 * a1 * Fraction(1, 4) - rf(nr, dr)
    try:
        sd = SpectralData(a1, a2)
    except ValueError:
        assume(False)  # a zero or square discriminant: reducible
    rep = genus_report(sd)
    assume(rep.delta > 0)  # no odd zero or pole: two components over QQ-bar
    cc = count_check(*lattice_from_spectral(sd, rep)[:2])
    assert cc["a"] == rep.a and cc["genus"] == rep.p_g


def test_smoothness_iff_no_chains():
    from quantcurve.spectral import singularity_chains

    for name in ("airy", "hermite", "gauss", "mixed", "smooth"):
        sd = load_curve(name).sd
        rep = genus_report(sd)
        on_c0, off = singularity_chains(sd, rep)
        assert (rep.p_a == rep.p_g) == (not on_c0 and not off), name


def test_quantum_operator_table():
    # (h d/dx)^2 + a1 (h d/dx) + a2 reads a1 and a2 off the spectral data
    for name, a1, a2 in [("airy", rf([0]), rf([0, -1])), ("hermite", rf([0, 1]), rf([1])),
                         ("gauss", rf([-1, 2], [0, -1, 1]), rf([1], [0, -4, 4]))]:
        sd = load_curve(name).sd
        assert (sd.a1.f, sd.a2.f) == (a1, a2), name


def test_higgs_entry_mode():
    entries = ((rf([0]), rf([1])), (rf([-1]), rf([0, -1])))
    sd = SpectralData.from_higgs(entries)
    assert sd.a1.f == rf([0, 1]) and sd.a2.f == rf([1])


def test_reducible_rejected():
    with pytest.raises(ValueError):
        SpectralData(rf([0, 2]), rf([0, 0, 1]))  # a2 = a1^2 / 4
    with pytest.raises(ValueError):
        SpectralData(rf([0]), rf([0, 0, -1]))    # y^2 = x^2


def random_spectral(rng):
    while True:
        a1num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        a2num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        dens = [(1,), (0, 1), (1, 1), (-1, 1), (0, 0, 1), (-1, 0, 1)]
        a1 = rf(a1num, rng.choice(dens))
        a2 = rf(a2num, rng.choice(dens))
        if a1.num.is_zero() and rng.random() < 0.5:
            a1 = rf([0])
        if a2.is_zero():
            continue
        try:
            return SpectralData(a1, a2)
        except ValueError:
            continue


def test_randomized_divisor_degree_and_delta(counter=None):
    rng = random.Random(99)
    for _ in range(120):
        sd = random_spectral(rng)
        div = divisor_of(sd.discriminant())
        assert div.degree() == -4
        assert delta_invariant(div) % 2 == 0


def test_randomized_lattice_agreement():
    rng = random.Random(123)
    for _ in range(60):
        sd = random_spectral(rng)
        rep = genus_report(sd)
        lat, smin, _ = lattice_from_spectral(sd, rep)
        cc = count_check(lat, smin)
        assert cc["a"] == rep.a
        assert cc["genus"] == rep.p_g
