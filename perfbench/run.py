"""quantcurve benchmark: one seeded workload per run, closed loop, one client.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload toprec-cold --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the inputs and checks):

* toprec-cold   fresh TopRecEngine per job, CLI toprec report through level 3-5
* wkb-random    random operators: parse -> analyze report -> wkb report
* verify-cross  seeded read queries against warm airy/catalan engines

A run sets the workload up, from process start to the first round ready,
then runs whole rounds of jobs until ``--seconds`` have passed.  setup_s is
the median of SETUP_RUNS such cold set-ups: this process's own and those of
fresh interpreters started with ``--setup-only`` after the measurement, so
every one pays the imports and first-use caches.  job_s.p50 is the
Harrell-Davis median of the job times (see hd_median).  Each job's
result is checked outside its timed interval (verify-cross queries carry
their oracle inside the job).  A job that raises or fails its check counts
in ``failed``; nothing is re-drawn.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every job
both untraced (no wrappers installed) and traced, prints the per-layer
metrics of layers.py and the tracing overhead, checks that each layer
mapped to the workload recorded a call, and writes the spans to
perfbench/out/.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

``--report`` instead prints the baseline table of the roadmap, one timed
row per name, in a single pass.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60
MIN_BEYOND = 10


def load_library():
    """Import quantcurve from ./src of the current checkout; exit 2 without it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "quantcurve", "__init__.py")):
        sys.stderr.write(f"error: no quantcurve sources under {src}; run from a checkout root\n")
        sys.exit(2)
    sys.path[:0] = [src, HERE]
    import quantcurve

    if not os.path.abspath(quantcurve.__file__).startswith(src + os.sep):
        sys.stderr.write(f"error: quantcurve imported from {quantcurve.__file__}, not {src}\n")
        sys.exit(2)


def tail(times):
    """(value, percentile, samples beyond): the highest percentile with at
    least MIN_BEYOND samples above it, or the maximum when there are fewer."""
    xs = sorted(times)
    n = len(xs)
    if n <= MIN_BEYOND:
        return xs[-1], 100.0, 0
    k = n - MIN_BEYOND
    return xs[k - 1], 100.0 * k / n, MIN_BEYOND


def hd_median(xs):
    """Harrell-Davis estimate of the median: the order statistics weighted
    by the Beta((n+1)/2, (n+1)/2) density over their rank intervals.

    A run holds a few dozen jobs whose costs leave gaps (wkb-random has one
    right at the middle), so the sample median jumps across a gap whenever
    two jobs near it swap ranks; this estimate moves smoothly instead.
    """
    xs = sorted(xs)
    n = len(xs)
    a = (n + 1) / 2
    steps = 100 * n
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    weights = [0.0] * n
    for k in range(steps):
        u = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(log_norm + (a - 1) * math.log(u * (1 - u)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def set_up(workloads, name, seed):
    """(workload, first round, seconds since process start)."""
    wl = workloads.Workload(name, seed)
    wl.warm_up()
    first = wl.next_round()
    return wl, first, time.perf_counter() - PROCESS_T0


def cold_set_up_s(name, seed):
    """Set-up time of a fresh interpreter on the same workload and seed."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S)
    return float(out.stdout.split()[-1])


def run_job(job, tracer=None, job_id=None):
    """(seconds, ok, error line) for one job; the check is not timed."""
    t0 = time.perf_counter()
    try:
        result = job.run() if tracer is None else tracer.run_job(job_id, job.kind, job.run)
    except Exception as exc:  # a failing job is a measured outcome
        return time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        problems = job.check(result)
    except Exception as exc:
        return dt, False, f"check raised {type(exc).__name__}: {exc}"
    return dt, not problems, "; ".join(problems) or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true", help="print the roadmap baseline table")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print the seconds taken")
    args = ap.parse_args(argv)

    load_library()
    if args.report:
        import baseline

        baseline.main()
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl, first, setup_s = set_up(workloads, args.workload, args.seed)
    if args.setup_only:
        print(setup_s)
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()

    times, traced_times, failures, by_stratum = [], [], [], {}
    attempted = rounds = 0
    deadline = time.perf_counter() + args.seconds
    batch = first
    while True:
        for job in batch:
            attempted += 1
            if tracer is None:
                dt, ok, err = run_job(job)
            else:
                # untraced and traced on the same input, alternating which runs first
                if attempted % 2:
                    dt, ok, err = run_job(job)
                    tdt, tok, terr = run_job(job, tracer, attempted)
                else:
                    tdt, tok, terr = run_job(job, tracer, attempted)
                    dt, ok, err = run_job(job)
                traced_times.append(tdt)
                ok, err = ok and tok, err or terr
            times.append(dt)
            by_stratum.setdefault(job.stratum, []).append(dt)
            if not ok:
                failures.append({"job": job.describe(), "error": err})
        rounds += 1
        if time.perf_counter() >= deadline:
            break
        batch = wl.next_round()

    setups = [setup_s]
    if tracer is None:
        setups += [cold_set_up_s(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]

    failed = len(failures)
    for f in failures:
        sys.stderr.write(f"FAILED {json.dumps(f, default=str)}\n")
    summary = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "fail_ratio": failed / attempted, "setup_runs_s": setups,
        "jobs": {k: {"n": len(v), "p50_s": statistics.median(v)} for k, v in by_stratum.items()},
    }
    summary.update(wl.describe_inputs())
    correct = failed == 0

    if tracer is None:
        value, pct, beyond = tail(times)
        metrics = {
            "job_s.p50": {"value": hd_median(times), "unit": "s"},
            "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        # printed, not gated: the percentile moves with the job count of a run
        summary["job_s.tail"] = {"value_s": value, "percentile": pct,
                                 "jobs": len(times), "beyond": beyond}
        summary["job_s.sample_median"] = statistics.median(times)
    else:
        import layers

        metrics, missing = layers.layer_metrics(tracer, args.workload)
        overhead = sum(traced_times) / sum(times) - 1
        name, unit, _ = layers.OVERHEAD
        metrics[name] = {"value": overhead, "unit": unit}
        if missing:
            correct = False
            summary["coverage_missing"] = missing
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        summary.update({"spans": len(tracer.spans), "spans_file": os.path.relpath(path)})

    print("summary " + json.dumps(summary, sort_keys=True, default=str))
    if tracer is None:
        print("  ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items())
              + f"  job_s.tail={value:.6g}s (p{pct:.1f} of {len(times)} jobs, {beyond} beyond)"
              + f"  fail_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
