"""Tests of the benchmark itself: seeded inputs, output digests, tracing.

    python3 -m pytest -q perfbench/selftest.py
"""

import gc
import os
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROUNDS = 3


def _inputs(name, seed, warm=None):
    wl = workloads.Workload(name, seed)
    wl.warm = warm
    for _ in range(ROUNDS):
        wl.next_round()
    return wl.generated, wl.describe_inputs()["inputs_sha256"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_different_seed_gives_different_inputs(name):
    assert _inputs(name, 7)[1] != _inputs(name, 8)[1]


@pytest.fixture(scope="module")
def warm():
    return workloads.Warm()


def _outputs(name, seed, warm, pick):
    wl = workloads.Workload(name, seed)
    wl.warm = warm
    jobs = [job for job in wl.next_round() if pick(job)]
    assert jobs
    out = []
    for job in jobs:
        result = job.run()
        assert not job.check(result), job.describe()
        out.append(workloads.digest(repr(result)))
    return out


@pytest.mark.parametrize("name, pick", [
    ("toprec-cold", lambda job: job.params["curve"] == "airy" and job.params["level"] < 5),
    ("wkb-random", lambda job: not job.params["surd"] and job.params["depth"] < 6),
    ("verify-cross", lambda job: job.kind in ("diff", "mu")),
])
def test_same_seed_gives_identical_output_digests(name, pick, warm):
    assert _outputs(name, 3, warm, pick) == _outputs(name, 3, warm, pick)


def test_classify_matches_known_curves():
    # airy: a1 = 0, a2 = -x; discriminant 4x has a simple pole at infinity
    assert workloads.classify([0], [1], [0, -1], [1], "inf") == (2, False)
    # a square discriminant (x^2) is a reducible curve the library refuses
    assert workloads.classify([0, 1], [1], [0], [1], "0") is None
    # discriminant 2 at a regular point needs sqrt(2)
    assert workloads.classify([0], [1], [-1], [2], "1") == (1, True)


# a1 = (2x^2 - 3x - 1)/(x - 3), a2 = x^2 - x - 1: at infinity a1^2 and 4 a2
# have leading terms 4x^2 that cancel in the discriminant
CANCELLING_AT_INF = ([-1, -3, 2], [-3, 1], [-1, -1, 1], [1])
# a1 = 2/(x - 1), a2 = x/(x - 1)^2: discriminant -4/(x - 1), a simple pole
CANCELLING_AT_ONE = ([2], [-1, 1], [0, 1], [1, -2, 1])


def test_generator_leaves_out_cancelling_poles():
    assert workloads.cancelling_pole(*CANCELLING_AT_INF)
    assert workloads.cancelling_pole(*CANCELLING_AT_ONE)
    assert workloads.classify(*CANCELLING_AT_INF, "inf") is None
    # airy; a1 = 2x, a2 = x (orders differ); a1 = 1/x, a2 = 1/(2x^2) (no cancellation)
    assert not workloads.cancelling_pole([0], [1], [0, -1], [1])
    assert not workloads.cancelling_pole([0, 2], [1], [0, 1], [1])
    assert not workloads.cancelling_pole([1], [0, 1], [1], [0, 0, 2])


@pytest.mark.xfail(strict=True, reason="known defect: lattice genus != spectral p_g "
                   "at a pole where a1^2 and 4 a2 cancel; once fixed, drop cancelling_pole")
@pytest.mark.parametrize("op", [CANCELLING_AT_INF, CANCELLING_AT_ONE])
def test_lattice_genus_at_cancelling_pole(op):
    import json

    from quantcurve import cli
    from quantcurve.curvespec import parse_curve_spec

    n1, d1, n2, d2 = op
    spec = parse_curve_spec(json.dumps({"name": "cancelling", "coefficients": {
        "a1": workloads._ratfunc_json(n1, d1), "a2": workloads._ratfunc_json(n2, d2)}}))
    report = cli.analyze_report(spec)
    assert report["lattice_check"]["genus"] == report["p_g"]


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 26)]
    assert run.tail(times) == (15.0, 60.0, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_hd_median():
    assert run.hd_median([2.5]) == pytest.approx(2.5)
    assert run.hd_median([3.0] * 7) == pytest.approx(3.0)
    # symmetric samples: the estimate is their centre, whatever their order
    assert run.hd_median([5.0, 1.0, 4.0, 2.0, 3.0]) == pytest.approx(3.0)
    # 24 jobs with a gap at the middle: when the job next to it crosses the
    # gap, the estimate moves half as far as the sample median does
    low, high = [0.5 + 0.02 * i for i in range(12)], [1.2 + 0.02 * i for i in range(12)]
    crossed = low[:-1] + [1.25] + high
    moved = run.hd_median(crossed) - run.hd_median(low + high)
    assert 0 < moved < (statistics.median(crossed) - statistics.median(low + high)) / 2


# bookkeeping outside the spans (one root-span wrapper call) stays below this
SELF_TIME_TOLERANCE = 0.05


def test_traced_self_times_sum_to_job_wall_time():
    job = workloads.toprec_job("airy", 4)
    tracer = Tracer()
    t0 = time.perf_counter()
    result = tracer.run_job(1, job.kind, job.run)
    wall = time.perf_counter() - t0
    assert not job.check(result)
    self_total = tracer.job_self_total(1)
    assert self_total <= wall
    assert wall - self_total <= SELF_TIME_TOLERANCE * wall
    assert tracer.calls["toprec.W"] > 0 and tracer.calls["series.mul"] > 0
    # the job installed the wrappers for its own duration only: every
    # wrapped name is restored, in the importing modules too
    from quantcurve import wkb
    from quantcurve.algebra import TruncSeries

    for fn in (workloads.serialize_report, wkb.expand_ratfunc, TruncSeries.__mul__):
        assert not hasattr(fn, "__wrapped__")


def test_table_terms_counts_every_fresh_engine():
    # each toprec job builds and frees its own engine; the next engine may
    # get the freed one's id, and its tables must count all the same
    job = workloads.toprec_job("airy", 3)
    tracer = Tracer()
    tracer.run_job(1, job.kind, job.run)
    once = tracer.counts["toprec.table_terms"]
    gc.collect()  # free the first engine, so its id is up for reuse
    tracer.run_job(2, job.kind, job.run)
    assert once > 0
    assert tracer.counts["toprec.table_terms"] == 2 * once


def test_table_terms_survives_id_reuse():
    # the allocator decides whether a later engine reuses a freed one's id;
    # small objects of one class show the reuse that real engines may hit
    class Engine:
        pass

    tracer = Tracer()
    result = types.SimpleNamespace(table={"a": 1, "b": 2})
    for _ in range(4):
        eng = Engine()
        tracer._w_terms((eng, 0, 3), {}, result)
        del eng
    assert tracer.counts["toprec.table_terms"] == 4 * len(result.table)


def _cache_sizes(warm):
    from quantcurve import oracles, toprec

    sizes = {"basis": len(toprec._basis_cache), "psi": len(oracles._psi_cache)}
    for name, (_, eng) in warm.curves.items():
        for attr, val in vars(eng).items():
            if isinstance(val, dict):
                sizes[f"{name}.{attr}"] = len(val)
    return sizes


def test_verify_jobs_leave_warm_state_unchanged(warm):
    # branch jobs read only the curve and the WKB states; the cheapest one
    # is kept, the rest skipped for time
    wl = workloads.Workload("verify-cross", 5)
    wl.warm = warm
    jobs = [job for job in wl.next_round()
            if job.kind != "branch" or job.params["order"] == workloads.BRANCH_CELLS[0][0]]
    before = _cache_sizes(warm)
    for job in jobs:
        assert not job.check(job.run()), job.describe()
    assert _cache_sizes(warm) == before
