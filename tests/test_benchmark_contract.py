"""The benchmark in perfbench/ wraps library functions and methods by name.
Installing its tracer here makes a deleted or renamed name fail the test
suite, not only a benchmark run.  Nothing under perfbench/ is written."""

from pathlib import Path

from quantcurve import cli, toprec, wkb

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    originals = (toprec.TopRecEngine.__dict__["W"], wkb.solve_wkb, wkb.wkb_extend,
                 wkb.verify_operator)
    tracer = Tracer()
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
