r"""Cross-module verification suites wired together for the CLI and tests.

Each suite returns a list of check records {"name", "passed", "detail"};
a suite passes when every record does.  The checks are exact: golden Table
data, lattice against discriminant genus counts, the WKB/free-energy
identity, recursion cross-checks, and oracle triangulations.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from .algebra import INF, QuadExtField, RatFunc, expand_ratfunc
from .curvespec import load_curve, place_repr
from .lattice import count_check, lattice_from_spectral
from .oracles import (
    airy_closed_free_energy,
    catalan_closed_form,
    double_factorial,
    dvv_intersection,
    enumerate_cellular,
    gauss_2f1_series,
    gauss_pi_product_series,
    hbar_evaluate,
)
from .spectral import genus_report
from .toprec import (
    ParamCurve,
    TopRecEngine,
    contract,
    matching_branch_map,
    branch_maps,
    over_lcm,
)
from .wkb import WkbConfig, assemble_wavefunction, solve_wkb, verify_operator


def _check(records, name, passed, detail=""):
    records.append({"name": name, "passed": bool(passed), "detail": detail})
    return passed


def wkb_state_for(spec, place=None, branch=None, order=None, depth=None, tau_order=None):
    """The WKB state of the spec's operator; ``order`` counts powers of the
    uniformizer, ``tau_order`` powers of the chart's local parameter."""
    exp = spec.expansion
    place = exp.place if place is None else place
    branch = branch or exp.branch
    order = exp.order if order is None else order
    depth = exp.depth if depth is None else depth
    cfg = WkbConfig(spec.sd.a1.f, spec.sd.a2.f, place, branch=branch, depth=depth)
    cfg.order = order * cfg.e if tau_order is None else tau_order
    return solve_wkb(cfg)


def engine_for(spec):
    if spec.parametrization is None:
        raise ValueError(f"curve {spec.name!r} has no parametrization block")
    p = spec.parametrization
    curve = ParamCurve(p.x, p.y, p.sigma, p.normalization_point, spectral=spec.sd)
    return curve, TopRecEngine(curve)


# ---------------------------------------------------------------------------
# golden Table data


TABLE1 = {
    "airy": {
        "a": 5, "p_a": 2, "p_g": 0, "delta": 2, "singular": True,
        "points": {"inf": ("irregular 3/2", 3)},
        "blowups_min": {"inf": 2},
    },
    "hermite": {
        "a": 4, "p_a": 1, "p_g": 0, "delta": 2, "singular": True,
        "points": {"inf": ("irregular 2", 3)},
        "blowups_min": {"inf": 1},
    },
    "gauss": {
        "a": 4, "p_a": 1, "p_g": 0, "delta": 2, "singular": True,
        "points": {"0": ("regular", 1), "1": ("regular", 1), "inf": ("regular", 1)},
        "blowups_min": {"0": 0, "1": 0, "inf": 1},
    },
    "mixed": {
        "a": 4, "p_a": 1, "p_g": 0, "delta": 2, "singular": True,
        "points": {"-1": ("regular", 1), "inf": ("irregular 1", 2)},
    },
    "smooth": {
        "a": 4, "p_a": 1, "p_g": 1, "delta": 4, "singular": False,
        "points": {"-1": ("regular", 1), "1": ("regular", 1), "inf": ("irregular 1", 2)},
    },
}

UW_MODELS = {
    # coefficients of w^0, w^1, w^2 as integer polynomials in u
    "airy": ([0, 0, 0, 0, 0, -1], [], [1]),
    "hermite": ([0, 0, 0, 0, 1], [0, -1], [1]),
    "gauss": ([0, 0, 4, -4], [0, -8, 4], [1]),
    "mixed": ([0, 0, 0, 1, 1], [0, -1, -1], [1]),
    "smooth": ([0, 0, -1, 0, 1], [2], [1]),
}


OPERATORS = {
    # (a1, a2) as [num, den] coefficient lists
    "airy": (([0], [1]), ([0, -1], [1])),
    "hermite": (([0, 1], [1]), ([1], [1])),
    "gauss": (([-1, 2], [0, -1, 1]), ([1], [0, -4, 4])),
    "mixed": (([1], [1]), ([1], [1, 1])),
    "smooth": (([0, 0, 2], [-1, 0, 1]), ([-1], [-1, 0, 1])),
}


def suite_table1(records=None):
    records = [] if records is None else records
    for name, want in TABLE1.items():
        spec = load_curve(name)
        a1_want, a2_want = OPERATORS[name]
        a1 = RatFunc.from_coeffs(*a1_want)
        a2 = RatFunc.from_coeffs(*a2_want)
        _check(records, f"table1/{name}/operator",
               spec.sd.a1.f == a1 and spec.sd.a2.f == a2,
               f"(h d/dx)^2 + ({a1.to_str()})(h d/dx) + ({a2.to_str()})")
        rep = genus_report(spec.sd)
        ok = (rep.a == want["a"] and rep.p_a == want["p_a"] and rep.p_g == want["p_g"]
              and rep.delta == want["delta"] and rep.is_singular == want["singular"])
        _check(records, f"table1/{name}/invariants", ok,
               f"a={rep.a} p_a={rep.p_a} p_g={rep.p_g} delta={rep.delta}")
        uw_want = UW_MODELS[name]
        uw_got = tuple([int(c) for c in p.coeffs] for p in rep.uw_poly)
        _check(records, f"table1/{name}/local-model", uw_got == tuple(uw_want),
               f"{uw_got}")
        profs = {place_repr(pr.place): pr for pr in rep.profiles
                 if pr.place is INF or pr.place.degree == 1}
        for pl, (cls, blfull) in want["points"].items():
            pr = profs.get(pl)
            okp = pr is not None and pr.classification() == cls and pr.blowups_full == blfull
            _check(records, f"table1/{name}/point-{pl}", okp,
                   f"{pr.classification() if pr else 'missing'} blowups={pr.blowups_full if pr else '?'}")
        for pl, blmin in want.get("blowups_min", {}).items():
            pr = profs.get(pl)
            _check(records, f"table1/{name}/blowups-min-{pl}",
                   pr is not None and pr.blowups_min == blmin,
                   f"{pr.blowups_min if pr else '?'}")
        lat, smin, _ = lattice_from_spectral(spec.sd, rep)
        cc = count_check(lat, smin)
        _check(records, f"table1/{name}/lattice-genus", cc["genus"] == rep.p_g,
               f"lattice {cc} vs p_g={rep.p_g}")
    return records


# ---------------------------------------------------------------------------
# WKB golden series


def suite_wkb_golden(records=None):
    records = [] if records is None else records
    # Airy: S0 = -(2/3) x^(3/2), S1 = -(1/4) log x, S2 = -(5/48) x^(-3/2)
    spec = load_curve("airy")
    st = wkb_state_for(spec, depth=2, order=8)
    s0, s1, s2 = st.S[0], st.S[1], st.S[2]
    ok0 = (s0.body.coefficient(-3) == Fraction(-2, 3)
           and all(c == 0 for k, c in s0.body.items() if k != -3) and s0.lam == 0)
    _check(records, "wkb/airy/S0", ok0, repr(s0))
    ok1 = s1.lam == Fraction(1, 4) and s1.body.is_zero()
    _check(records, "wkb/airy/S1", ok1, repr(s1))
    ok2 = (s2.body.coefficient(3) == Fraction(-5, 48)
           and all(c == 0 for k, c in s2.body.items() if k != 3) and s2.lam == 0)
    _check(records, "wkb/airy/S2", ok2, repr(s2))

    # Catalan: S0 = -z^2/2 + log z, S1 = -(1/2) log(1 - z^2), z the Catalan series
    spec = load_curve("catalan")
    st = wkb_state_for(spec, depth=1, order=14)
    x = RatFunc.from_coeffs([1, 0, 1], [0, 1])  # z + 1/z
    z = expand_ratfunc(x, Fraction(0), 15).reversion()  # z(xi), xi = 1/x
    s0_expect = -(z * z) * Fraction(1, 2) + z.shift(-1).log1()  # log z = log xi + log(z/xi)
    ok0 = st.S[0].lam == 1 and st.S[0].body.eq_through(s0_expect, 12)
    _check(records, "wkb/catalan/S0", ok0, repr(st.S[0]))
    s1_expect = (1 - z * z).log1() * Fraction(-1, 2)
    ok1 = st.S[1].lam == 0 and st.S[1].body.eq_through(s1_expect, 12)
    _check(records, "wkb/catalan/S1", ok1, repr(st.S[1]))

    # Gauss: S1 and S2 coefficient-by-coefficient through x^7
    spec = load_curve("gauss")
    st = wkb_state_for(spec, place=Fraction(0), branch="plus", depth=2, order=9)
    s1_want = {2: Fraction(-7, 32), 3: Fraction(-53, 96), 4: Fraction(-1075, 1024),
               5: Fraction(-4319, 2560), 6: Fraction(-28319, 12288), 7: Fraction(-72109, 28672)}
    s2_want = {2: Fraction(7, 32), 3: Fraction(113, 96), 4: Fraction(1821, 512),
               5: Fraction(1269, 160), 6: Fraction(56151, 4096), 7: Fraction(487323, 28672)}
    ok1 = all(st.S[1].body.coefficient(k) == v for k, v in s1_want.items()) and st.S[1].lam == 0
    ok2 = all(st.S[2].body.coefficient(k) == v for k, v in s2_want.items()) and st.S[2].lam == 0
    _check(records, "wkb/gauss/S1", ok1, repr(st.S[1].body.truncate(7)))
    _check(records, "wkb/gauss/S2", ok2, repr(st.S[2].body.truncate(7)))

    # Gauss S0: the surd coefficients of the leading series collapse to
    # rationals; checked in QQ(sqrt(3)) arithmetic
    E = QuadExtField(3)
    r3 = E.gen
    half = E.of(Fraction(1, 2))
    denom = E.of(2) * r3 - E.of(3)

    def surd(num_int, a, b, denom_pow, scale_den):
        # num_int * (a*sqrt(3) + b) / (scale_den * (2 sqrt(3) - 3)^denom_pow)
        acc = E.one()
        for _ in range(denom_pow):
            acc = acc * denom
        return E.of(num_int) * (E.of(a) * r3 + E.of(b)) / (E.of(scale_den) * acc)

    surd_s0 = {
        1: E.of(Fraction(1, 4)),
        2: -surd(21, 4, -7, 2, 32),
        3: surd(23, 26, -45, 3, 32),
        4: -surd(2547, 56, -97, 4, 1024),
        5: surd(7281, 362, -627, 5, 2560),
        6: -surd(38115, 780, -1351, 6, 4096),
        7: surd(265869, 5042, -8733, 7, 28672),
    }
    ok0 = True
    for k, v in surd_s0.items():
        mine = st.S[0].body.coefficient(k)
        ok0 = ok0 and (E.of(mine) == v)
    _check(records, "wkb/gauss/S0-surds-clear", ok0, "surd coefficients equal rationals")
    return records


# ---------------------------------------------------------------------------
# cross suite: the quantization identity and the two recursion forms


DIFF_SAMPLE_POINTS = [Fraction(3), Fraction(5), Fraction(7), Fraction(9, 2), Fraction(11, 3)]


def suite_cross(records=None, depth=4):
    records = [] if records is None else records
    for name in ("airy", "catalan"):
        spec = load_curve(name)
        curve, eng = engine_for(spec)
        # S_m content sits at local order ~3(m-1) (Airy) or 2m (Catalan);
        # a few coefficients beyond that decide equality
        target = 3 * depth + 6
        st = wkb_state_for(spec, depth=depth, tau_order=target)
        bm = matching_branch_map(curve, spec.expansion.place,
                                 st.config.e, st.S_prime[0], target + 2)
        for m in range(2, depth + 1):
            sm = eng.principal_specialize(m, bm)
            thru = min(sm.body.order, st.S[m].body.order)
            ok = sm.body.eq_through(st.S[m].body, thru) and not st.S[m].has_log()
            _check(records, f"cross/{name}/S{m}-specialization", ok, f"through order {thru}")
        vo = verify_operator(st)
        _check(records, f"cross/{name}/operator-annihilation", vo["ok"],
               f"levels {[lv['zero'] for lv in vo['levels']]}")
        for (g, n) in [(0, 4), (1, 2), (2, 1), (0, 5), (1, 3)]:
            pts = DIFF_SAMPLE_POINTS[: n - 1]
            ok = eng.diff_recursion_check(g, n, pts)
            _check(records, f"cross/{name}/diff-vs-integral-{g}-{n}", ok)
    return records


# ---------------------------------------------------------------------------
# oracle triangulation


def airy_table_as_exponents(eng, g, n):
    out = {}
    for M, c in eng.W(g, n).items():
        exps = tuple(sorted(d - 1 for (_, d) in M))
        coeff = c
        for (_, d) in M:
            coeff = coeff / (d - 1)
        out[exps] = coeff
    return out


def catalan_mu_coefficient(eng, curve, g, n, mu, section=None):
    """Coefficient of prod x_i^(-mu_i) in the Catalan free energy, read from
    the primitives at ``section``, the branch section over x = INF (built
    through max(mu) + 4 when not given).  A section too short for mu
    raises ValueError.

    The primitives come from one ``primitive_series`` call, and the
    table's int items meet in one ``contract`` the coefficients of tau^mu_i
    of those series, as int numerators over one lcm per slot, so the sum is
    one int over one denominator."""
    if section is None:
        section = branch_maps(curve, INF, 1, max(mu) + 4)[0]
    tab = eng.W(g, n)
    series = eng.primitive_series({b for M in tab.ids for b in M}, section)
    den, cols = tab.den, []
    for m in mu:
        pairs = {}
        for b, s in series.items():
            if m > s.order:
                raise ValueError(f"coefficient {m} beyond guaranteed order {s.order}")
            k = m - s.val
            pairs[b] = (s.nums[k] if 0 <= k < len(s.nums) else 0), s.den
        d, col = over_lcm(pairs)
        den *= d
        cols.append(col)
    return Fraction(contract(tab.ids.items(), cols), den)


# the oracle suite's reach: Airy levels against the psi correlators, the
# largest |mu| of the Catalan cellular counts, the Catalan wave's x-order
AIRY_LEVEL = 3
CATALAN_MU_MAX = 6
CATALAN_WAVE_ORDER = 6


def suite_oracles(records=None):
    records = [] if records is None else records
    # (a) Airy free energies against the closed psi-correlator formula
    spec = load_curve("airy")
    _, eng = engine_for(spec)
    for level in range(1, AIRY_LEVEL + 1):
        for (g, n), _ in eng.compute_level(level):
            got = airy_table_as_exponents(eng, g, n)
            want = airy_closed_free_energy(g, n)
            _check(records, f"oracles/airy/F{g}-{n}", got == want, f"{len(want)} monomials")
    _check(records, "oracles/airy/tau-values",
           dvv_intersection(0, (0, 0, 0)) == 1
           and dvv_intersection(1, (1,)) == Fraction(1, 24)
           and dvv_intersection(0, (1, 0, 0, 0)) == 1)

    # (b) Catalan coefficients against brute-force cellular graph counts
    spec = load_curve("catalan")
    curve, eng = engine_for(spec)
    cases = 0
    okall = True
    section = branch_maps(curve, INF, 1, CATALAN_MU_MAX + 4)[0]
    for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1)]:
        for mu in itertools.product(range(1, CATALAN_MU_MAX + 1), repeat=n):
            if sum(mu) % 2 or sum(mu) > CATALAN_MU_MAX:
                continue
            got = catalan_mu_coefficient(eng, curve, g, n, mu, section)
            cell = enumerate_cellular(g, n, mu)
            want = Fraction(cell)
            for m in mu:
                want /= m
            okall = okall and got == want
            cases += 1
    _check(records, "oracles/catalan/cellular-counts", okall, f"{cases} cases")

    # (c) Catalan wavefunction against the closed Pochhammer form
    # exactness of the x^(-2n) coefficient needs depth >= n
    nmax = CATALAN_WAVE_ORDER // 2
    st = wkb_state_for(spec, depth=nmax + 1, order=CATALAN_WAVE_ORDER + 4)
    wave = assemble_wavefunction(st)
    F = wave.body.field
    okc = wave.prefactor_exponent == F.one() / F.gen
    for n in range(nmax + 1):
        got = wave.coefficient(2 * n)
        okc = okc and got == catalan_closed_form(n)
    _check(records, "oracles/catalan/closed-form-wave", okc, f"through x^-{2 * nmax}")
    okh = all(
        hbar_evaluate(catalan_closed_form(n), 1) == double_factorial(2 * n - 1) for n in range(6)
    )
    _check(records, "oracles/catalan/hbar-1-double-factorials", okh, "1,1,3,15,105")

    # (d) Gauss wavefunction against the hypergeometric oracle
    spec = load_curve("gauss")
    st = wkb_state_for(spec, place=Fraction(0), branch="plus", depth=2, order=8)
    wave = assemble_wavefunction(st)
    F = wave.body.field
    h = F.gen
    twof1 = gauss_2f1_series(5)
    piprod = gauss_pi_product_series(5)
    _check(records, "oracles/gauss/pi-product-equals-2f1",
           all(twof1[n] == piprod[n] for n in range(6)))
    okg = True
    hpow = F.one()
    for n in range(6):
        got = wave.coefficient(n) * hpow       # h^n * coefficient of x^n
        want = twof1[n] * hpow
        gs = expand_ratfunc(got.rf, Fraction(0), 3)
        ws = expand_ratfunc(want.rf, Fraction(0), 3)
        okg = okg and gs.eq_through(ws, 3)
        hpow = hpow * h
    _check(records, "oracles/gauss/wave-matches-2f1-through-h3", okg)
    # the numerator at x^2 is exactly 1 + 7h - 7h^2 + 7h^3 over 32 h^2
    got2 = wave.coefficient(2) * h * h * F.of(32)
    want2 = F.of(1) + F.of(7) * h - F.of(7) * h * h + F.of(7) * h * h * h
    _check(records, "oracles/gauss/x2-numerator", got2 == want2,
           "1+7h-7h^2+7h^3 at x^2; power of h fixed by the product formula")
    return records


SUITES = {
    "table1": lambda records, **kw: suite_table1(records),
    "wkb": lambda records, **kw: suite_wkb_golden(records),
    "cross": lambda records, **kw: suite_cross(records, depth=kw.get("depth") or 4),
    "oracles": lambda records, **kw: suite_oracles(records),
}


def run_suites(names, stages=None, **kw):
    """Run the named suites ("all" for every one) into one record list; a
    ``stages`` dict receives each suite's wall seconds, keyed by its name."""
    records = []
    for name in names:
        if name == "all":
            todo = list(SUITES)
        elif name in SUITES:
            todo = [name]
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        for suite in todo:
            if stages is None:
                SUITES[suite](records, **kw)
            else:
                t0 = time.perf_counter()
                SUITES[suite](records, **kw)
                stages[suite] = round(stages.get(suite, 0) + time.perf_counter() - t0, 3)
    return records
