"""The benchmark in perfbench/ wraps library functions and methods by name.
Installing its tracer here makes a deleted or renamed name fail the test
suite, not only a benchmark run.  Nothing under perfbench/ is written."""

from fractions import Fraction
from pathlib import Path

import pytest

from quantcurve import cli, toprec, wkb
from quantcurve.algebra import RatFunc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch):
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))


def _tracer(monkeypatch):
    _perfbench(monkeypatch)
    from tracer import Tracer

    return Tracer()


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    tracer = _tracer(monkeypatch)
    originals = (toprec.TopRecEngine.__dict__["W"], wkb.solve_wkb, wkb.wkb_extend,
                 wkb.verify_operator)
    tracer.install()
    try:
        assert tracer._undo
        assert toprec.TopRecEngine.__dict__["W"] is not originals[0]
        # the wkb report's operator check runs through the traced name
        assert wkb.verify_operator is not originals[3]
        assert cli.verify_operator is wkb.verify_operator
    finally:
        tracer.uninstall()
    assert (toprec.TopRecEngine.__dict__["W"], wkb.solve_wkb, wkb.wkb_extend,
            wkb.verify_operator) == originals


def test_traced_expand_ratfunc_reads_the_ratfunc_field(monkeypatch):
    # the tracer tags an expand_ratfunc span by the .field of its RatFunc
    tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        toprec.expand_ratfunc(RatFunc.from_coeffs([1], [1, 1]), Fraction(0), 3)
    finally:
        tracer.uninstall()
    assert tracer.calls["series.expand_ratfunc"] == 1
    assert tracer.calls["series.field.qq"] == 1


@pytest.mark.parametrize("name", ["toprec-cold", "wkb-random", "verify-cross"])
def test_traced_round_covers_the_mapped_layers(name, monkeypatch):
    # a traced benchmark run is judged incorrect when a job fails under the
    # tracer's wrappers or when a layer that layers.py maps to the workload
    # records no call: one seeded round, traced job by job, must do neither
    tracer = _tracer(monkeypatch)
    import layers
    import workloads

    load = workloads.Workload(name, 1)
    load.warm_up()
    for i, job in enumerate(load.next_round()):
        assert job.check(tracer.run_job(i, job.kind, job.run)) == [], job.describe()
    _, missing = layers.layer_metrics(tracer, name)
    assert missing == []


@pytest.mark.parametrize("name", ["toprec-cold", "wkb-random", "verify-cross"])
def test_benchmark_workload_runs_one_round(name, monkeypatch):
    # the workloads read engine names no other test reaches (TopRecEngine.F,
    # SymTable.table, toprec._basis_cache, f_primitive, _odd_primitive,
    # FracFuncElement.rf): a removed one fails a job here, not only in a
    # benchmark run, where it would raise the fail ratio
    _perfbench(monkeypatch)
    import workloads

    load = workloads.Workload(name, 1)
    load.warm_up()
    for job in load.next_round():
        assert job.check(job.run()) == [], job.describe()
