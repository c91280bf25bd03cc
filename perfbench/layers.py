"""Per-layer metrics of the traced run and the end-to-end metric each should move.

Each entry is (name, unit, better, source, workloads, moves):

* ``source`` is how the value is read from the tracer: ("self", key) the
  summed self time of spans counted under ``key``, ("calls", key) their
  number, ("count", key) a count taken at the call boundary, ("median", key)
  the median of per-call samples.
* ``workloads`` are the workloads on which the metric must record at least
  one call; the traced run fails its coverage check otherwise.
* ``moves`` names the end-to-end metrics a change to the layer should move,
  written down before any optimisation lands.
"""

TOPREC, WKB, VERIFY = "toprec-cold", "wkb-random", "verify-cross"
ALL = (TOPREC, WKB, VERIFY)

_KERNEL = "job_s.p50 and jobs_per_s on toprec-cold and wkb-random; barely verify-cross"
_READS = "job_s.tail on verify-cross, where branch-map jobs are the tail; ~0 on toprec-cold"
_TOPREC = "job_s on toprec-cold; only setup_s on verify-cross"
_WKB = "job_s on wkb-random (and verify-cross)"
_GEOM = "predicted <1% of wkb-random job time: no end-to-end change expected"

METRICS = [
    ("series.mul.calls", "count", "lower", ("calls", "series.mul"), (TOPREC, WKB), _KERNEL),
    ("series.mul.self_s", "s", "lower", ("self", "series.mul"), (TOPREC, WKB), _KERNEL),
    ("series.mul.coeff_products", "count", "lower",
     ("count", "series.mul.coeff_products"), (TOPREC, WKB), _KERNEL),
    ("series.inverse.self_s", "s", "lower", ("self", "series.inverse"), (TOPREC, WKB), _KERNEL),
    ("series.sqrt.self_s", "s", "lower", ("self", "series.sqrt"), (WKB,), _KERNEL),
    ("series.expand_ratfunc.self_s", "s", "lower",
     ("self", "series.expand_ratfunc"), (TOPREC, WKB), _KERNEL),
    ("series.add.self_s", "s", "lower", ("self", "series.add"), (WKB, VERIFY),
     "job_s on wkb-random and verify-cross (toprec adds coefficient vectors, not series)"),
    ("series.reversion.self_s", "s", "lower", ("self", "series.reversion"), (VERIFY,), _READS),
    ("series.compose.self_s", "s", "lower", ("self", "series.compose"), (VERIFY,), _READS),
    ("series.self_s.qq", "s", "lower", ("self", "series.field.qq"), ALL,
     "every workload; the QQ-only fast path of the roadmap lands here"),
    ("series.self_s.quadext", "s", "lower", ("self", "series.field.quadext"), (WKB,),
     "only wkb-random job_s"),
    ("series.self_s.hbar", "s", "lower", ("self", "series.field.hbar"), (VERIFY,),
     "only verify-cross job_s (wave comparisons over QQ(h))"),
    ("poly.ratfunc.self_s", "s", "lower", ("self", "poly.ratfunc"), (TOPREC, VERIFY),
     "job_s on verify-cross and toprec-cold"),
    ("poly.factor.calls", "count", "lower", ("calls", "poly.factor"), (WKB,), _WKB),
    ("poly.factor.self_s", "s", "lower", ("self", "poly.factor"), (WKB,), _WKB),
    ("toprec.W.calls", "count", "lower", ("calls", "toprec.W"), (TOPREC,), _TOPREC),
    ("toprec.W.self_s", "s", "lower", ("self", "toprec.W"), (TOPREC,), _TOPREC),
] + [
    (f"toprec.W.self_s.level{lv}", "s", "lower", ("self", f"toprec.W.level{lv}"), (TOPREC,), _TOPREC)
    for lv in range(1, 6)
] + [
    ("toprec.table_terms", "count", "lower", ("count", "toprec.table_terms"), (TOPREC,), _TOPREC),
    ("toprec.principal_specialize.self_s", "s", "lower",
     ("self", "toprec.principal_specialize"), (VERIFY,), "job_s on verify-cross"),
    ("toprec.diff_recursion_check.self_s", "s", "lower",
     ("self", "toprec.diff_recursion_check"), (VERIFY,), "job_s on verify-cross"),
    ("toprec.branch_maps.self_s", "s", "lower", ("self", "toprec.branch_maps"), (VERIFY,), _READS),
    ("toprec.ratfunc_at_series.self_s", "s", "lower",
     ("self", "toprec.ratfunc_at_series"), (VERIFY,), "job_s on verify-cross"),
    ("wkb.semiclassical_root.self_s", "s", "lower", ("self", "wkb.semiclassical_root"), (WKB,), _WKB),
    ("wkb.wkb_extend.self_s", "s", "lower", ("self", "wkb.wkb_extend"), (WKB,), _WKB),
    ("wkb.verify_operator.self_s", "s", "lower", ("self", "wkb.verify_operator"), (WKB,), _WKB),
    ("wkb.assemble_wavefunction.self_s", "s", "lower",
     ("self", "wkb.assemble_wavefunction"), (VERIFY,), "job_s on verify-cross"),
    ("wkb.order_useful_ratio", "ratio", "higher", ("median", "wkb.order_useful_ratio"), (WKB,),
     "requested order over the guaranteed order of the deepest S'_m: padding wasted in wkb-random"),
    ("spectral.genus_report.self_s", "s", "lower", ("self", "spectral.genus_report"), (WKB,), _GEOM),
    ("lattice.lattice_from_spectral.self_s", "s", "lower",
     ("self", "lattice.lattice_from_spectral"), (WKB,), _GEOM),
    ("lattice.count_check.self_s", "s", "lower", ("self", "lattice.count_check"), (WKB,), _GEOM),
    ("oracles.enumerate_cellular.self_s", "s", "lower",
     ("self", "oracles.enumerate_cellular"), (VERIFY,), "job_s on verify-cross"),
    ("oracles.airy_closed_free_energy.self_s", "s", "lower",
     ("self", "oracles.airy_closed_free_energy"), (VERIFY,), "job_s on verify-cross"),
    ("curvespec.serialize.self_s", "s", "lower", ("self", "curvespec.serialize"), ALL,
     "every workload; toprec-cold reports are the largest"),
    ("curvespec.serialize.bytes", "bytes", "lower", ("count", "curvespec.serialize.bytes"), ALL,
     "every workload; toprec-cold reports are the largest"),
]

#: traced over untraced job time, minus one, measured on the same jobs
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def read(tracer, source):
    kind, key = source
    if kind == "self":
        return tracer.self_s.get(key, 0.0), tracer.calls.get(key, 0)
    if kind == "calls":
        n = tracer.calls.get(key, 0)
        return n, n
    if kind == "count":
        n = tracer.counts.get(key, 0)
        return n, n
    samples = sorted(tracer.samples.get(key, ()))
    if not samples:
        return 0.0, 0
    mid = len(samples) // 2
    value = samples[mid] if len(samples) % 2 else (samples[mid - 1] + samples[mid]) / 2
    return value, len(samples)


def layer_metrics(tracer, workload):
    """({name: {"value", "unit"}}, [names that recorded nothing on a mapped workload])."""
    out, missing = {}, []
    for name, unit, _, source, workloads, _ in METRICS:
        value, seen = read(tracer, source)
        out[name] = {"value": value, "unit": unit}
        if workload in workloads and not seen:
            missing.append(name)
    return out, missing
