"""One-pass reproduction of the roadmap's baseline table (not part of the gate).

Each row is timed once, by name.  CLI rows run ``python3 -m quantcurve.cli``
in a child process, so they include interpreter start like the table does;
the other rows time library calls in this process.
"""

import os
import subprocess
import sys
import time

from quantcurve import toprec, verify
from quantcurve.algebra import INF
from quantcurve.curvespec import load_curve


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "quantcurve.cli", *argv], env=env, check=False,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def rows():
    yield "toprec --curve catalan --depth 6 (CLI)", _cli("toprec", "--curve", "catalan", "--depth", "6"), ""
    yield "toprec --curve catalan --depth 4 (CLI)", _cli("toprec", "--curve", "catalan", "--depth", "4"), ""
    yield "verify --suite all (CLI)", _cli("verify", "--suite", "all"), ""
    for suite in ("cross", "oracles"):
        dt, recs = _timed(lambda: verify.run_suites([suite]))
        yield f"verify suite {suite} (in process)", dt, f"{sum(r['passed'] for r in recs)}/{len(recs)} pass"
    yield "analyze --curve airy (CLI)", _cli("analyze", "--curve", "airy"), ""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sympy"], check=False)
    yield "sympy import alone (child process)", time.perf_counter() - t0, ""
    curve, _ = verify.engine_for(load_curve("catalan"))
    for n in (10, 20, 40):
        dt, _ = _timed(lambda: toprec.branch_maps(curve, INF, 1, n))
        yield f"branch_maps(catalan, INF, 1, {n})", dt, ""
    _, fresh = verify.engine_for(load_curve("catalan"))
    dt, w_fresh = _timed(lambda: fresh.W(2, 1))
    yield "catalan W(2,1), fresh engine", dt, f"working order {fresh._ord()}"
    _, used = verify.engine_for(load_curve("catalan"))
    used.compute_level(5)
    used.compute_level(6)
    # recompute W(2,1) and the lower levels it needs at the working order
    # the level 5-6 tables set, from empty local caches
    for key in [k for k in used._w if 2 * k[0] - 2 + k[1] <= 3]:
        del used._w[key]
        used._f.pop(key, None)
    used._series_cache.clear()
    used._transform_cache.clear()
    order = used._ord()
    dt, w_used = _timed(lambda: used.W(2, 1))
    same = "identical" if w_used.table == w_fresh.table else "DIFFERENT"
    yield "catalan W(2,1), engine after levels 5-6", dt, f"working order {order}; tables {same}"


def main():
    for name, seconds, note in rows():
        print(f"{name:<45} {seconds:9.3f} s  {note}".rstrip(), flush=True)
