"""Span tracer for the per-layer run, installed from outside the library.

``run_job()`` installs the wrappers for one job and removes them when it
returns, so untraced jobs run the library's own functions.  ``install()``
replaces each traced function or method with a wrapper at every place it
is looked up: the attribute of its class, and the global of every loaded
``quantcurve`` module (and of the benchmark's ``workloads``) that imported
it by name, such as ``wkb.expand_ratfunc``.  A wrapper records a span
(name, start, end, parent span, job id) and adds its self time, the span's
duration minus the time its child spans cover, to the span's layer.  Field
elements are not wrapped: series spans are tagged by the field of their
operand instead, which keeps the overhead bounded.

Spans stay in memory and are written out once, by ``write()``, at the end
of the run.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import defaultdict

from quantcurve import curvespec, lattice, oracles, spectral, toprec, wkb
from quantcurve.algebra import poly, series
from quantcurve.algebra.fields import QuadExtField, RationalField
from quantcurve.algebra.poly import FractionField, RatFunc
from quantcurve.algebra.series import TruncSeries

import workloads


def field_tag(field):
    if isinstance(field, RationalField):
        return "qq"
    if isinstance(field, QuadExtField):
        return "quadext"
    if isinstance(field, FractionField):
        return "hbar"
    return "other"


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []
        self.names = {}
        self._stack = []
        self._next_id = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        # engine -> (g, n) already counted; keyed on the engine object, since
        # a freed engine's id can come back for the next one
        self._seen_tables = weakref.WeakKeyDictionary()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, tags=None, after=None):
        """Wrap ``fn`` in a span called ``name``.

        ``tags(args, kwargs)`` returns extra aggregate keys the span's self
        time and call also count toward; ``after(args, kwargs, result)``
        records counts at the call boundary.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(name, sid, parent, start, end, frame[1],
                              tags(args, kwargs) if tags else ())
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, name, sid, parent, start, end, child, keys):
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        own = dur - child
        for key in (name, *keys):
            self.self_s[key] += own
            self.calls[key] += 1
        self.spans.append((self.names.setdefault(name, len(self.names)),
                           start, end, parent, sid, self.job))

    def run_job(self, job_id, kind, fn):
        """Run one job under a root span named after its kind, with the
        wrappers installed for its duration only."""
        self.job = job_id
        self.install()
        try:
            return self.span(f"job.{kind}", fn)()
        finally:
            self.uninstall()

    def job_self_total(self, job_id):
        """Sum of the self times of one job's spans, rebuilt from the spans."""
        child = defaultdict(float)
        spans = [s for s in self.spans if s[5] == job_id]
        for _, start, end, parent, _, _ in spans:
            if parent is not None:
                child[parent] += end - start
        return sum((end - start) - child[sid] for _, start, end, _, sid, _ in spans)

    def write(self, path):
        names = {v: k for k, v in self.names.items()}
        with open(path, "w", encoding="utf-8") as fh:
            for nid, start, end, parent, sid, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": names[nid], "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")

    # -- boundary counters ---------------------------------------------------

    def _mul_products(self, args, kwargs, result):
        a, b = args[0], args[1]
        nb = len(b.coeffs) if isinstance(b, TruncSeries) else 1
        self.counts["series.mul.coeff_products"] += len(a.coeffs) * nb

    def _w_terms(self, args, kwargs, result):
        eng, g, n = args[0], args[1], args[2]
        seen = self._seen_tables.setdefault(eng, set())
        if (g, n) not in seen:
            seen.add((g, n))
            self.counts["toprec.table_terms"] += len(result.table)

    def _serialized(self, args, kwargs, result):
        self.counts["curvespec.serialize.bytes"] += len(result.encode("utf-8"))

    def _wkb_orders(self, args, kwargs, state):
        self.samples["wkb.order_useful_ratio"].append(
            state.config.order / state.S_prime[-1].order)

    # -- installation --------------------------------------------------------

    def install(self):
        def series_tag(args, kwargs):
            return ("series.field." + field_tag(args[0].field),)

        def level_tag(args, kwargs):
            return (f"toprec.W.level{2 * args[1] - 2 + args[2]}",)

        methods = [
            (TruncSeries, "__mul__", "series.mul", series_tag, self._mul_products),
            (TruncSeries, "__rmul__", "series.mul", series_tag, self._mul_products),
            (TruncSeries, "__add__", "series.add", series_tag, None),
            (TruncSeries, "__sub__", "series.add", series_tag, None),
            (TruncSeries, "inverse", "series.inverse", series_tag, None),
            (TruncSeries, "sqrt", "series.sqrt", series_tag, None),
            (TruncSeries, "reversion", "series.reversion", series_tag, None),
            (TruncSeries, "compose", "series.compose", series_tag, None),
            (toprec.TopRecEngine, "W", "toprec.W", level_tag, self._w_terms),
            (toprec.TopRecEngine, "principal_specialize", "toprec.principal_specialize", None, None),
            (toprec.TopRecEngine, "diff_recursion_check", "toprec.diff_recursion_check", None, None),
        ]
        for attr in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                     "__rtruediv__", "__neg__", "compose", "__call__"):
            methods.append((RatFunc, attr, "poly.ratfunc", None, None))
        for cls, attr, name, tags, after in methods:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.span(name, orig, tags, after))
            self._undo.append((cls, attr, orig))

        functions = [
            (series.expand_ratfunc, "series.expand_ratfunc", series_tag, None),
            (poly.factor_over, "poly.factor", None, None),
            (spectral.genus_report, "spectral.genus_report", None, None),
            (lattice.lattice_from_spectral, "lattice.lattice_from_spectral", None, None),
            (lattice.count_check, "lattice.count_check", None, None),
            (wkb.semiclassical_root, "wkb.semiclassical_root", None, None),
            (wkb.wkb_extend, "wkb.wkb_extend", None, None),
            (wkb.verify_operator, "wkb.verify_operator", None, None),
            (wkb.assemble_wavefunction, "wkb.assemble_wavefunction", None, None),
            (wkb.solve_wkb, "wkb.solve_wkb", None, self._wkb_orders),
            (toprec.branch_maps, "toprec.branch_maps", None, None),
            (toprec.ratfunc_at_series, "toprec.ratfunc_at_series", None, None),
            (oracles.enumerate_cellular, "oracles.enumerate_cellular", None, None),
            (oracles.airy_closed_free_energy, "oracles.airy_closed_free_energy", None, None),
            (curvespec.serialize_report, "curvespec.serialize", None, self._serialized),
        ]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "quantcurve" or n.startswith("quantcurve.")]
        modules.append(workloads)
        for fn, name, tags, after in functions:
            wrapped = self.span(name, fn, tags, after)
            hits = 0
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, fn))
                        hits += 1
            if not hits:
                raise RuntimeError(f"{name}: no module looks up {fn.__qualname__}")

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
