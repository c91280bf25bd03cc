"""Seeded inputs, jobs and correctness checks for the three workloads.

Every workload is a closed loop with one client: a job is one call a user
would make, and the next job starts when the previous one has returned.
Jobs come in *rounds*.  A round holds a fixed list of strata (curve and
level, field kind and chart, query cell); the seed draws the
concrete input inside each stratum and the order of the round.  Rounds keep
the mix of expensive and cheap jobs the same from seed to seed, so the
medians compare across seeds while every seed still gets its own inputs.

Only the generated inputs reach the library: curve specs as JSON-like
dicts, levels, orders, places and query parameters.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from fractions import Fraction

from quantcurve import cli, oracles, toprec, verify, wkb
from quantcurve.algebra import INF, QQ, TruncSeries, expand_ratfunc
from quantcurve.curvespec import load_curve, parse_curve_spec, serialize_report

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as _fh:
    TOPREC_DIGESTS = json.load(_fh)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def emit(payload):
    """The CLI's serialization of a report payload."""
    return serialize_report({"report": payload})


class Job:
    """One seeded call: ``run()`` is timed; ``check(result)`` is not, and
    returns the list of conditions the result failed (empty when correct)."""

    def __init__(self, kind, params, run, check, stratum=None):
        self.kind = kind
        self.params = params
        self.run = run
        self.check = check
        self.stratum = stratum or kind

    def describe(self):
        return {"kind": self.kind, **self.params}


# ---------------------------------------------------------------------------
# toprec-cold: fresh engine, CLI toprec report, serialized


# One round runs every (curve, level) once and the two strata of about 1 s,
# airy L5 and catalan L3, twice: the median job of a run then rests on eight
# jobs of that cost rather than four, while catalan L5 (~8 s) keeps half of a
# round's time.  Job times on a shared host swing by 25% within seconds, and
# four jobs did not average that out.
TOPREC_STRATA = [("airy", 3), ("airy", 4), ("airy", 5), ("airy", 5),
                 ("catalan", 3), ("catalan", 3), ("catalan", 4), ("catalan", 5)]


def airy_report_matches_closed_form(report):
    """Every airy table in a parsed toprec report equals the psi-class formula."""
    for entry in report["differentials"]:
        got = {}
        for term in entry["terms"]:
            ds = [d for (_, d) in term["key"]]
            coeff = Fraction(term["coeff"])
            for d in ds:
                coeff /= d - 1
            got[tuple(sorted(d - 1 for d in ds))] = coeff
        if got != oracles.airy_closed_free_energy(entry["g"], entry["n"]):
            return False
    return True


def toprec_job(curve, level):
    spec = load_curve(curve)

    def run():
        return emit(cli.toprec_report(spec, level=level))

    def check(text):
        problems = []
        if digest(text) != TOPREC_DIGESTS[curve][str(level)]:
            problems.append("report digest differs from the recorded one")
        if curve == "airy" and not airy_report_matches_closed_form(json.loads(text)["report"]):
            problems.append("airy tables differ from airy_closed_free_energy")
        return problems

    return Job("toprec", {"curve": curve, "level": level}, run, check, f"{curve}-L{level}")


def toprec_round(rng):
    strata = list(TOPREC_STRATA)
    rng.shuffle(strata)
    return [toprec_job(c, lv) for c, lv in strata]


# ---------------------------------------------------------------------------
# wkb-random: random operators, analyze + wkb reports
#
# Exact arithmetic costs grow with coefficient heights, so independent random
# operators per seed make the job mix, and every median, swing by 20% from
# seed to seed.  The workload therefore draws a fixed pool of random
# operators (two per cell of WKB_CELLS, from POOL_SEED) and the run seed moves
# each one by a change of variable x = s*u + t (s = +-1, t integer; t = 0
# at infinity).  That gives every seed its own operators and expansion
# places while the local series arithmetic at the place keeps its size.  The
# seed also picks the branch and the job order.
#
# The generator's own integer arithmetic classifies each draw (chart index
# e, and whether the leading discriminant coefficient is a rational square,
# i.e. whether the solver must adjoin a surd).  It rejects only draws the
# library refuses by contract: a zero denominator, and a zero or square
# discriminant (a reducible curve); and the draws of one known defect
# (see cancelling_pole), so that no job of the workload fails.


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _psub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _is_zero(p):
    return all(c == 0 for c in p)


def _is_rational_square(q):
    q = Fraction(q)
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    return rn * rn == n and rd * rd == d


def _is_square_poly(p):
    """Whether an integer polynomial is the square of one over QQ."""
    p = [Fraction(c) for c in _trim(p)]
    deg = len(p) - 1
    if deg % 2 or not _is_rational_square(p[-1]):
        return False
    lead = Fraction(math.isqrt(p[-1].numerator), math.isqrt(p[-1].denominator))
    half = deg // 2
    root = [Fraction(0)] * (half + 1)
    root[half] = lead
    # match coefficients from the top down
    for k in range(half - 1, -1, -1):
        acc = p[half + k] - sum(root[i] * root[half + k - i] for i in range(k + 1, half))
        root[k] = acc / (2 * lead)
    sq = [Fraction(0)] * (2 * half + 1)
    for i, a in enumerate(root):
        for j, b in enumerate(root):
            sq[i + j] += a * b
    return sq == p


def _shift(p, c):
    """Coefficients of p(x + c), c rational."""
    out = [Fraction(0)] * len(p)
    for k in range(len(p) - 1, -1, -1):
        # Horner: out = out * (x + c) + p[k]
        nxt = [Fraction(0)] * len(p)
        for i, v in enumerate(out):
            if v:
                if i + 1 < len(nxt):
                    nxt[i + 1] += v
                nxt[i] += v * c
        nxt[0] += p[k]
        out = nxt
    return out


def _local_lead(p, place):
    """(valuation, leading coefficient) of a nonzero polynomial at a place."""
    p = _trim(p)
    if place == "inf":
        return -(len(p) - 1), Fraction(p[-1])
    q = _shift(p, Fraction(place))
    for k, c in enumerate(q):
        if c:
            return k, c
    raise AssertionError("zero polynomial")


def _pdivmod(a, b):
    """Quotient and remainder of polynomials over QQ."""
    a, b = [Fraction(c) for c in _trim(a)], _trim(b)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and not _is_zero(a):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        a = _trim([x - c * b[i - k] if i >= k else x for i, x in enumerate(a)][:-1] or [0])
    return _trim(q), a


def _pgcd(a, b):
    while not _is_zero(b):
        a, b = b, _pdivmod(a, b)[1]
    return [c / a[-1] for c in a]


def cancelling_pole(n1, d1, n2, d2):
    """Whether a1^2 and 4 a2 have a pole of the same order at some place
    with leading terms that cancel in the discriminant a1^2 - 4 a2.

    On such draws the library's lattice genus differs from its spectral p_g
    (a known defect of the blow-up count at a pole with l = 2k), so the
    generator leaves them out; selftest.py keeps one as an expected failure.
    """
    if _is_zero(n1) or _is_zero(n2):
        return False
    # infinity: function valuations; the dx twist makes a1 a pole when v < 2
    (vn1, ln1), (vd1, ld1) = _local_lead(n1, "inf"), _local_lead(d1, "inf")
    (vn2, ln2), (vd2, ld2) = _local_lead(n2, "inf"), _local_lead(d2, "inf")
    v1 = vn1 - vd1
    if v1 < 2 and 2 * v1 == vn2 - vd2 and (ln1 / ld1) ** 2 == 4 * ln2 / ld2:
        return True
    # finite places: with P = n1^2 d2, Q = 4 n2 d1^2 over D = d1^2 d2 and
    # G = gcd(P, Q), a root of (P - Q)/G is a zero of neither P/G nor Q/G
    # (they are coprime), so P and Q have equal order there and cancel; it
    # is a pole when G vanishes there to lower order than D
    P = _pmul(_pmul(n1, n1), d2)
    Q = [4 * c for c in _pmul(n2, _pmul(d1, d1))]
    D = _pmul(_pmul(d1, d1), d2)
    G = _pgcd(P, Q)
    poles = _pdivmod(D, _pgcd(D, G))[0]
    return len(_pgcd(poles, _pdivmod(_psub(P, Q), G)[0])) > 1


def classify(n1, d1, n2, d2, place):
    """None for a draw the generator leaves out, else (e, needs_surd)."""
    if _is_zero(d1) or _is_zero(d2):
        return None
    num = _psub(_pmul(_pmul(n1, n1), d2), [4 * c for c in _pmul(n2, _pmul(d1, d1))])
    if _is_zero(num) or _is_square_poly(_pmul(num, d2)):
        return None
    if cancelling_pole(n1, d1, n2, d2):
        return None
    den = _pmul(_pmul(d1, d1), d2)
    vn, ln = _local_lead(num, place)
    vd, ld = _local_lead(den, place)
    v = vn - vd
    e = 2 if v % 2 else 1
    return e, not _is_rational_square(ln / ld)


WKB_PLACES = ["inf", "0", "1", "-1/2"]
# one round: (e, needs_surd, depth, tau-order) per job.  Surds dominate, as
# in unconstrained draws; every round has QQ-only and branch-chart jobs and
# spreads depth 4-6 and tau-order 12-16 evenly over the field kinds.
WKB_CELLS = [
    (1, True, 4, 12), (1, True, 4, 16), (1, True, 5, 12),
    (1, True, 5, 16), (1, True, 6, 12), (1, True, 6, 16),
    (1, False, 4, 16), (1, False, 6, 12),
    (2, True, 4, 14), (2, True, 5, 14),
    (2, False, 5, 12), (2, False, 6, 16),
]
POOL_SEED = "wkb-random pool 1"
POOL_PER_CELL = 2
SHIFTS = range(-2, 3)
# draws tried per pool operator; the pool of POOL_SEED needs at most 216
MAX_TRIES = 100000


def _rand_poly(rng):
    return _trim([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])


def _rand_place(rng):
    i = rng.randrange(len(WKB_PLACES) + 1)
    if i < len(WKB_PLACES):
        return WKB_PLACES[i]
    return str(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def draw_operator(rng, stratum):
    """A random (n1, d1, n2, d2, place) whose classification is ``stratum``."""
    for _ in range(MAX_TRIES):
        n1, d1, n2, d2 = (_rand_poly(rng) for _ in range(4))
        place = _rand_place(rng)
        if classify(n1, d1, n2, d2, place) == stratum:
            return n1, d1, n2, d2, place
    raise RuntimeError(f"no draw in stratum {stratum}")


def wkb_pool():
    """POOL_PER_CELL random operators for every cell, the same for all seeds."""
    rng = random.Random(POOL_SEED)
    return [[draw_operator(rng, (e, surd)) for _ in range(POOL_PER_CELL)]
            for e, surd, _, _ in WKB_CELLS]


def _substitute(p, s, t):
    """Coefficients of p(s*u + t)."""
    return [c * s ** k for k, c in enumerate(_shift(p, Fraction(t)))]


def change_variable(op, s, t):
    """The operator in u with x = s*u + t: a1 -> s*a1(x), a2 -> a2(x)."""
    n1, d1, n2, d2, place = op
    n1 = [s * c for c in _substitute(n1, s, t)]
    d1, n2, d2 = (_substitute(p, s, t) for p in (d1, n2, d2))
    if place != "inf":
        place = str(s * (Fraction(place) - t))
    return n1, d1, n2, d2, place


def seeded_variant(rng, op, stratum):
    """A change of variable of ``op`` that keeps its classification."""
    moves = [(s, t) for s in (1, -1) for t in (SHIFTS if op[4] != "inf" else (0,))]
    rng.shuffle(moves)
    for s, t in moves:
        new = change_variable(op, s, t)
        if classify(*new) == stratum:
            return new
    raise AssertionError("the identity keeps the classification")


def _ratfunc_json(num, den):
    return [[str(c) for c in num], [str(c) for c in den]]


def wkb_job(name, op, e, surd, depth, tau_order, branch):
    n1, d1, n2, d2, place = op
    spec_dict = {
        "name": name,
        "coefficients": {"a1": _ratfunc_json(n1, d1), "a2": _ratfunc_json(n2, d2)},
        "expansion": {"place": place, "branch": branch, "order": tau_order // e, "depth": depth},
    }
    text = json.dumps(spec_dict, sort_keys=True)

    def run():
        spec = parse_curve_spec(text)
        exp = spec.expansion
        ana = cli.analyze_report(spec)
        rep, _ = cli.wkb_report(spec, place=exp.place, branch=exp.branch,
                                order=exp.order, depth=exp.depth)
        return emit(ana), emit(rep)

    def check(result):
        ana, rep = (json.loads(t)["report"] for t in result)
        problems = []
        if not rep["operator_annihilation"]["ok"]:
            problems.append("operator not annihilated")
        if rep["ramification_index"] != e or (rep["field"] != "QQ") != surd:
            problems.append(f"chart e={rep['ramification_index']} field {rep['field']}, "
                            f"generator expected e={e} surd={surd}")
        if ana["lattice_check"].get("genus") != ana["p_g"]:
            problems.append(f"lattice genus {ana['lattice_check'].get('genus')} "
                            f"!= spectral p_g {ana['p_g']}")
        return problems

    params = {"spec": text, "e": e, "surd": surd, "depth": depth, "tau_order": tau_order}
    return Job("wkb", params, run, check, f"{'QQ(sqrt)' if surd else 'QQ'} e={e}")


def wkb_round(rng, pool, index):
    """Round ``index``: one pool operator per cell, each seeded-moved."""
    jobs = []
    for (e, surd, depth, order), ops in zip(WKB_CELLS, pool):
        op = seeded_variant(rng, ops[index % len(ops)], (e, surd))
        jobs.append(wkb_job(f"random-{index}-{len(jobs)}", op, e, surd, depth, order,
                            rng.choice(["plus", "minus"])))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# verify-cross: read queries against warm airy and catalan engines


VERIFY_LEVEL = 4
# Every round runs each query cell once; the seed draws the inputs inside a
# cell (sample points, the arrangement of mu, the catalan wave order) and the
# job order.  A cell fixes what sets a query's cost (curve, level, the
# largest mu part, the branch-map order), so rounds cost the same across
# seeds.
VERIFY_CURVES = ("airy", "catalan")
SPECIALIZE_CELLS = [(c, m) for c in VERIFY_CURVES for m in range(2, VERIFY_LEVEL + 2)]
DIFF_CELLS = [(c, g, lv + 2 - 2 * g) for c in VERIFY_CURVES for lv in range(2, VERIFY_LEVEL + 1)
              for g in range(lv // 2 + 1) if lv + 2 - 2 * g >= 2]
MU_CASES = [(g, n, mu) for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1)]
            for mu in itertools.product(range(1, 7), repeat=n)
            if sum(mu) % 2 == 0 and sum(mu) <= 6]
MU_CELLS = sorted({(g, n, tuple(sorted(mu))) for g, n, mu in MU_CASES})
# branch-map orders 10..40 (branch_maps costs ~n^3.8), alternating the wave
# checked with each
BRANCH_CELLS = [(n, "catalan" if i % 2 else "gauss") for i, n in enumerate(range(10, 41, 5))]


def stable_range(level):
    """Every stable (g, n) with 1 <= 2g - 2 + n <= level."""
    return [(g, lv + 2 - 2 * g) for lv in range(1, level + 1)
            for g in range((lv + 2) // 2 + 1) if lv + 2 - 2 * g >= 1]


class Warm:
    """Engines and WKB states the verify-cross queries read.

    Besides the W tables, it fills every cache a query reads through level
    VERIFY_LEVEL (F tables, both primitive gauges, basis functions, the
    psi-class intersections), so no job changes state for a later one.
    """

    def __init__(self):
        self.curves = {}
        self.states = {}
        self.branch = {}
        for name in ("airy", "catalan"):
            spec = load_curve(name)
            curve, eng = verify.engine_for(spec)
            for g, n in stable_range(VERIFY_LEVEL):
                for M in eng.F(g, n).table:
                    for key in M:
                        toprec.basis_function(key)
                        eng.f_primitive(key)
                        eng._odd_primitive(key)  # the gauge of diff_recursion_check
                if name == "airy":
                    oracles.airy_closed_free_energy(g, n)
            target = 3 * (VERIFY_LEVEL + 1) + 6
            st = verify.wkb_state_for(spec, depth=VERIFY_LEVEL + 1, tau_order=target)
            self.curves[name] = (curve, eng)
            self.states[name] = st
            self.branch[name] = toprec.matching_branch_map(
                curve, spec.expansion.place, st.config.e, st.S_prime[0], target + 2)
        self.states["gauss"] = verify.wkb_state_for(
            load_curve("gauss"), place=Fraction(0), branch="plus", depth=2, order=8)
        self.twof1 = oracles.gauss_2f1_series(5)


def _record(name, passed, detail=""):
    return emit({"name": name, "passed": bool(passed), "detail": detail})


def specialize_job(warm, rng, cell):
    name, m = cell

    def run():
        _, eng = warm.curves[name]
        st = warm.states[name]
        sm = eng.principal_specialize(m, warm.branch[name])
        thru = min(sm.body.order, st.S[m].body.order)
        ok = sm.body.eq_through(st.S[m].body, thru) and not st.S[m].has_log()
        if name == "airy":
            lv = m - 1
            for g in range((lv + 2) // 2 + 1):
                n = lv + 2 - 2 * g
                if n >= 1:
                    ok = ok and (verify.airy_table_as_exponents(eng, g, n)
                                 == oracles.airy_closed_free_energy(g, n))
        return _record(f"specialize/{name}/S{m}", ok, f"through order {thru}")

    return Job("specialize", {"curve": name, "m": m}, run, _passed)


def diff_job(warm, rng, cell):
    name, g, n = cell
    # distinct integers in [2, 12], away from the branch and polar loci
    # (t = 0, +-1, infinity) of both parametrizations
    points = [Fraction(p) for p in rng.sample(range(2, 13), n - 1)]

    def run():
        _, eng = warm.curves[name]
        return _record(f"diff/{name}/{g}-{n}", eng.diff_recursion_check(g, n, points))

    return Job("diff", {"curve": name, "g": g, "n": n, "points": [str(p) for p in points]},
               run, _passed)


def mu_job(warm, rng, cell):
    g, n, parts = cell
    mu = rng.choice(sorted(set(itertools.permutations(parts))))

    def run():
        curve, eng = warm.curves["catalan"]
        got = verify.catalan_mu_coefficient(eng, curve, g, n, mu)
        want = Fraction(oracles.enumerate_cellular(g, n, mu))
        for m in mu:
            want /= m
        return _record(f"mu/{g}-{n}/{mu}", got == want, str(got))

    return Job("mu", {"g": g, "n": n, "mu": list(mu)}, run, _passed)


def branch_job(warm, rng, cell):
    order, wave = cell
    # the x^(-2k) catalan coefficient is exact once the state depth is >= k
    kmax = rng.randint(2, VERIFY_LEVEL + 1)

    def run():
        curve, _ = warm.curves["catalan"]
        (t_series,) = toprec.branch_maps(curve, INF, 1, order)
        # the section inverts x: 1/x(t(tau)) = tau through its order
        w = toprec.ratfunc_at_series(curve.x, t_series).inverse()
        ok = w.order >= order and w.eq_through(TruncSeries.uniformizer(QQ, w.order))
        if wave == "catalan":
            wf = wkb.assemble_wavefunction(warm.states["catalan"], order_x=2 * kmax)
            F = wf.body.field
            closed = [oracles.catalan_closed_form(k // 2) if k % 2 == 0 else F.zero()
                      for k in range(2 * kmax + 1)]
            ok = ok and (wf.body - TruncSeries(F, 0, closed, 2 * kmax)).is_zero()
        else:
            wf = wkb.assemble_wavefunction(warm.states["gauss"], order_x=len(warm.twof1) - 1)
            ok = ok and _gauss_matches(wf, warm.twof1)
        return _record(f"branch/{order}/{wave}", ok)

    return Job("branch", {"order": order, "wave": wave, "kmax": kmax}, run, _passed)


def _gauss_matches(wf, twof1):
    # h^k times the x^k coefficient against the 2F1 oracle through h^3
    F = wf.body.field
    h = F.gen
    hpow = F.one()
    for k in range(len(twof1)):
        got = expand_ratfunc((wf.coefficient(k) * hpow).rf, Fraction(0), 3)
        want = expand_ratfunc((twof1[k] * hpow).rf, Fraction(0), 3)
        if not got.eq_through(want, 3):
            return False
        hpow = hpow * h
    return True


def _passed(text):
    report = json.loads(text)["report"]
    return [] if report["passed"] else [f"{report['name']} failed {report['detail']}".strip()]


def verify_round(warm, rng):
    jobs = ([specialize_job(warm, rng, c) for c in SPECIALIZE_CELLS]
            + [diff_job(warm, rng, c) for c in DIFF_CELLS]
            + [mu_job(warm, rng, c) for c in MU_CELLS]
            + [branch_job(warm, rng, c) for c in BRANCH_CELLS])
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------


class Workload:
    """Set-up state plus an endless seeded stream of rounds."""

    def __init__(self, name, seed):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.counter = itertools.count()
        self.warm = None
        self.pool = wkb_pool() if name == "wkb-random" else None
        self.generated = []

    def next_round(self):
        if self.name == "toprec-cold":
            jobs = toprec_round(self.rng)
        elif self.name == "wkb-random":
            jobs = wkb_round(self.rng, self.pool, next(self.counter))
        else:
            jobs = verify_round(self.warm, self.rng)
        self.generated += [job.describe() for job in jobs]
        return jobs

    def warm_up(self):
        """Build the warm engines (verify-cross) and fill lazy imports and
        module caches with seed-independent jobs."""
        rng = random.Random("warm-up")
        if self.name == "verify-cross":
            self.warm = Warm()
        if self.name == "toprec-cold":
            jobs = [toprec_job("airy", 3)]
        elif self.name == "wkb-random":
            op = draw_operator(rng, (1, True))
            jobs = [wkb_job("warm-up", op, 1, True, 4, 12, "plus")]
        else:
            jobs = [specialize_job(self.warm, rng, SPECIALIZE_CELLS[0]),
                    diff_job(self.warm, rng, DIFF_CELLS[0]),
                    mu_job(self.warm, rng, MU_CELLS[0]),
                    branch_job(self.warm, rng, BRANCH_CELLS[0])]
        for job in jobs:
            problems = job.check(job.run())
            if problems:
                raise RuntimeError(f"warm-up job {job.describe()} failed: {problems}")

    def describe_inputs(self):
        """Digest of every generated input, and the wkb field-kind mix."""
        text = json.dumps(self.generated, sort_keys=True)
        out = {"inputs_sha256": digest(text)}
        if self.name == "wkb-random":
            mix = {}
            for d in self.generated:
                key = f"{'QQ(sqrt)' if d['surd'] else 'QQ'} e={d['e']}"
                mix[key] = mix.get(key, 0) + 1
            out["field_mix"] = mix
        return out


WORKLOADS = ("toprec-cold", "wkb-random", "verify-cross")
