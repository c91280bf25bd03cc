"""Acceptance criteria, one test per criterion.

Every comparison is exact (rational or integer equality); each criterion
prints a PASS line with its runtime against the stated budget.
"""

import random
import time
from fractions import Fraction

import pytest

from quantcurve.algebra import HBAR_FIELD, INF, RatFunc, expand_ratfunc
from quantcurve.curvespec import load_curve
from quantcurve.lattice import adjunction_genus, build_lattice, count_check, lattice_from_spectral
from quantcurve.oracles import (
    catalan_closed_form,
    double_factorial,
    dvv_intersection,
    enumerate_cellular,
    gauss_2f1_series,
    gauss_pi_product_series,
    hbar_evaluate,
)
from quantcurve.spectral import genus_report, pole_profile
from quantcurve.verify import (
    catalan_mu_coefficient,
    engine_for,
    suite_cross,
    suite_oracles,
    suite_table1,
    suite_wkb_golden,
    wkb_state_for,
)
from quantcurve.wkb import WkbConfig, assemble_wavefunction, solve_wkb, verify_operator

from test_spectral import random_spectral


def _report(num, label, t, budget):
    line = f"ACCEPTANCE {num}: PASS  {label}  ({t:.2f}s < {budget}s)"
    print(line)
    assert t < budget, f"criterion {num} exceeded its runtime budget: {t:.2f}s"


def test_criterion_1_table1_golden_suite():
    t0 = time.perf_counter()
    records = suite_table1()
    t = time.perf_counter() - t0
    failures = [r["name"] for r in records if not r["passed"]]
    assert not failures, failures
    _report(1, f"Table-1 golden suite ({len(records)} checks, exact equality)", t, 1.0)


def test_criterion_2_blowup_counts():
    t0 = time.perf_counter()
    airy = pole_profile(load_curve("airy").sd, INF)
    assert airy.blowups_full == 3 and airy.r == Fraction(5, 2)
    hermite = pole_profile(load_curve("hermite").sd, INF)
    assert hermite.blowups_min == 1
    assert hermite.blowups_full == 3
    gauss = load_curve("gauss").sd
    rep = genus_report(gauss)
    assert all(pr.blowups_full == 1 for pr in rep.profiles)
    t = time.perf_counter() - t0
    _report(2, "blow-up counts: airy 3 = ceil(5/2), hermite 1 min / 3 full, gauss 1 each", t, 1.0)


def test_criterion_3_lattice_cross_check():
    t0 = time.perf_counter()
    for name in ("airy", "hermite", "gauss", "mixed", "smooth"):
        sd = load_curve(name).sd
        rep = genus_report(sd)
        lat, smin, _ = lattice_from_spectral(sd, rep)
        cc = count_check(lat, smin)
        assert adjunction_genus(lat, smin) == rep.p_g, name
        assert cc["a"] == rep.a and cc["genus"] == rep.p_g, name
    rng = random.Random(314)
    for _ in range(50):
        g = rng.randint(0, 2)
        on = [rng.randint(1, 4) for _ in range(rng.randint(0, 2))]
        off = [(rng.randint(1, 4), rng.random() < 0.6) for _ in range(rng.randint(0, 3))]
        lat = build_lattice(g, on, off)
        lo = 2 * sum(n for n, oc in off if oc)
        smin = lat.sigma_min_class(rng.randint(lo, lo + 12))
        cc = count_check(lat, smin)
        assert cc["genus"] == adjunction_genus(lat, smin)
    t = time.perf_counter() - t0
    _report(3, "lattice adjunction = discriminant genus; 5 examples + 50 random configs", t, 5.0)


def test_criterion_4_wkb_golden_series():
    t0 = time.perf_counter()
    records = suite_wkb_golden()
    t = time.perf_counter() - t0
    failures = [r["name"] for r in records if not r["passed"]]
    assert not failures, failures
    _report(4, "WKB golden series: airy S0/S1/S2, catalan S0/S1, gauss S1/S2 "
               "through x^7, sqrt(3) arithmetic cleared", t, 10.0)


def test_criterion_5_central_quantization_identity():
    t0 = time.perf_counter()
    records = suite_cross(depth=6)
    t = time.perf_counter() - t0
    spec_checks = [r for r in records if "specialization" in r["name"]]
    failures = [r["name"] for r in records if not r["passed"]]
    assert not failures, failures
    assert len(spec_checks) == 10  # m = 2..6 for airy and catalan
    _report(5, "principal specialization equals WKB S_m for m <= 6 (airy, catalan)", t, 120.0)


def test_criterion_6_oracle_triangulation():
    t0 = time.perf_counter()
    # (a) Airy free energies against psi-class closed forms for 2g-2+n <= 4,
    # recovering the correlators themselves from the recursion output
    spec = load_curve("airy")
    _, eng = engine_for(spec)
    recovered = {}
    for level in range(1, 5):
        for g in range((level + 2) // 2 + 1):
            n = level + 2 - 2 * g
            if n < 1:
                continue
            pref = Fraction((-1) ** n, 2 ** (2 * g - 2 + n))
            for M, c in eng.W(g, n).items():
                ds = tuple(sorted((d - 2) // 2 for (_, d) in M))
                coeff = c
                for (_, d) in M:
                    coeff = coeff / (d - 1)
                corr = coeff / pref
                for d in ds:
                    corr = corr / Fraction(double_factorial(2 * d - 1), 2 ** (2 * d + 1))
                recovered[(g, ds)] = corr
                assert corr == dvv_intersection(g, ds), (g, ds)
    assert recovered[(0, (0, 0, 0))] == 1
    assert recovered[(1, (1,))] == Fraction(1, 24)
    assert recovered[(0, (0, 0, 0, 1))] == 1
    for (g, ds), v in recovered.items():
        if sum(ds) <= 4:
            assert v == dvv_intersection(g, ds)

    # (b) Catalan coefficients equal cellular counts / product(mu), sum(mu) <= 8
    spec = load_curve("catalan")
    curve, engc = engine_for(spec)
    import itertools

    cases = 0
    for (g, n) in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]:
        for mu in itertools.product(range(1, 9), repeat=n):
            if sum(mu) % 2 or sum(mu) > 8:
                continue
            got = catalan_mu_coefficient(engc, curve, g, n, mu)
            want = Fraction(enumerate_cellular(g, n, mu))
            for m in mu:
                want /= m
            assert got == want, (g, n, mu)
            cases += 1
    assert cases >= 150

    # (c) assembled Catalan wavefunction equals the closed form through x^-10
    st = wkb_state_for(spec, depth=6, order=14)
    wave = assemble_wavefunction(st)
    F = wave.body.field
    assert wave.prefactor_exponent == F.one() / F.gen
    for n in range(6):
        assert wave.coefficient(2 * n) == catalan_closed_form(n), n
        if 2 * n + 1 <= wave.body.order:
            assert wave.coefficient(2 * n + 1) == F.zero()
    for n, expect in enumerate([1, 1, 3, 15, 105]):
        assert hbar_evaluate(catalan_closed_form(n), 1) == expect
    t = time.perf_counter() - t0
    _report(6, f"oracle triangulation: DVV closed forms, {cases} cellular counts, "
               "closed Catalan wave through x^-10 and h = 1 double factorials", t, 300.0)


def test_criterion_7_gauss_wavefunction():
    t0 = time.perf_counter()
    spec = load_curve("gauss")
    st = wkb_state_for(spec, place=Fraction(0), branch="plus", depth=2, order=8)
    wave = assemble_wavefunction(st)
    F = wave.body.field
    h = F.gen
    oracle = gauss_pi_product_series(5)
    assert oracle == gauss_2f1_series(5)[:6]  # the product formula is the exact expansion
    hpow = F.one()
    for n in range(6):
        got = wave.coefficient(n) * hpow
        want = oracle[n] * hpow
        gs = expand_ratfunc(got.rf, Fraction(0), 3)
        ws = expand_ratfunc(want.rf, Fraction(0), 3)
        assert gs.eq_through(ws, 3), n  # numerators agree through h^3
        hpow = hpow * h
    # exact numerator at x^2: 1 + 7h - 7h^2 + 7h^3 over 32 h^2
    got2 = wave.coefficient(2) * h * h * F.of(32)
    assert got2 == F.of(1) + F.of(7) * h - F.of(7) * h * h + F.of(7) * h * h * h
    # the one-power-of-h discrepancy resolves in favor of the product formula:
    # h^2 * c_2 matches (1+8h)/(32(1+h)); the h^1 variant does not
    c2 = oracle[2]
    assert c2 * h * h == (F.one() + F.of(8) * h) / (F.of(32) * (F.one() + h))
    assert c2 * h != (F.one() + F.of(8) * h) / (F.of(32) * (F.one() + h))
    t = time.perf_counter() - t0
    _report(7, "gauss wavefunction matches the hypergeometric oracle through x^5 / h^3; "
               "1+7h-7h^2+7h^3 at x^2; power-of-h reading pinned to the product formula", t, 30.0)


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    cases = 0
    rng = random.Random(2718)

    # discriminant degree -4 and even delta on random spectral data
    from quantcurve.spectral import delta_invariant, divisor_of

    for _ in range(120):
        sd = random_spectral(rng)
        div = divisor_of(sd.discriminant())
        assert div.degree() == -4
        assert delta_invariant(div) % 2 == 0
        cases += 2

    # residue theorem on random rational functions
    from quantcurve.algebra import Poly

    def residue_at(f, place):
        # res f dt: the 1/(t - c) coefficient, or minus the 1/t coefficient at INF
        if place is INF:
            return -expand_ratfunc(f, INF, 2).coefficient(1)
        return expand_ratfunc(f, place, 0).coefficient(-1)

    done = 0
    while done < 100:
        roots = []
        while len(roots) < rng.randint(1, 4):
            c = Fraction(rng.randint(-6, 6))
            if c not in roots:
                roots.append(c)
        den = Poly.const(1)
        for r in roots:
            den = den * Poly([-r, 1])
        num = Poly([Fraction(rng.randint(-8, 8)) for _ in range(rng.randint(1, len(roots) + 2))])
        if num.is_zero():
            continue
        f = RatFunc(num, den)
        total = sum((residue_at(f, r) for r in roots), Fraction(0)) + residue_at(f, INF)
        assert total == 0
        done += 1
        cases += 1

    # recursion output invariants: symmetry re-check, pole locality, and
    # vanishing residues away from ramification (each multiset and each
    # support point is one verified case)
    for name in ("airy", "catalan"):
        curve, eng = engine_for(load_curve(name))
        for level in range(1, 5):
            for (g, n), tab in eng.compute_level(level):
                for M in tab.table:
                    for (q, d) in M:
                        assert q in curve.ram_points
                        assert q is INF or d >= 2
                    cases += 1
                cases += len(curve.support) - len(set(curve.support) & set(curve.ram_points))

        # differential vs integral recursion at levels 2 and 3
        for (g, n) in [(0, 4), (1, 2), (2, 1), (0, 5), (1, 3)]:
            for trial in range(2):
                pts = []
                while len(pts) < n - 1:
                    c = Fraction(rng.randint(2, 60), rng.randint(1, 7))
                    if c not in pts and abs(c) > 1:
                        pts.append(c)
                assert eng.diff_recursion_check(g, n, pts)
                cases += 1

    # operator annihilation for random WKB states
    done = 0
    while done < 15:
        c = Fraction(rng.randint(1, 5))
        a1 = RatFunc.from_coeffs([Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))])
        g = RatFunc.from_coeffs([c * c, Fraction(rng.randint(-4, 4))])
        a2 = (a1 * a1 - g * g) * Fraction(1, 4)
        try:
            st = solve_wkb(WkbConfig(a1, a2, Fraction(0),
                                     branch=rng.choice(["plus", "minus"]), order=8, depth=3))
        except ValueError:
            continue
        rep = verify_operator(st)
        assert rep["ok"]
        cases += len(rep["levels"])
        done += 1

    t = time.perf_counter() - t0
    assert cases >= 500, cases
    _report(8, f"property suites: {cases} randomized/structural cases", t, 120.0)
