r"""Command line interface: analyze / wkb / toprec / verify / plotdata.

Reports are JSON with every exact number rendered as a string; runs are
deterministic byte-for-byte (timing is available behind --timing and kept
out of the deterministic payload).  plotdata is the one floating-point
output, for display only.

Exit codes: 0 ok, 1 a verify check failed, 2 bad input, 3 an internal
invariant broke; every failure is one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction

from .algebra import QuadExtElement
from .curvespec import (
    BUILTIN_NAMES,
    MAX_DEPTH,
    MAX_ORDER,
    CurveSpecError,
    check_size,
    frac_str,
    load_curve,
    parse_point,
    place_repr,
    poly_strs,
    ratfunc_strs,
    serialize_report,
)
from .lattice import count_check, lattice_from_spectral
from .spectral import genus_report
from .verify import SUITES, engine_for, run_suites, wkb_state_for
from .wkb import verify_operator

MAX_LEVEL = 6
# the cross suite specializes S_2 .. S_depth, which reads levels up to depth - 1
MAX_VERIFY_DEPTH = MAX_LEVEL + 1
MAX_SAMPLES = 10000


def _coeff_repr(c):
    if isinstance(c, QuadExtElement):
        return [frac_str(c.a), frac_str(c.b), frac_str(c.field.d)]
    return frac_str(c)


def _stage_clock(stages):
    """lap(name) records in ``stages`` the wall seconds since the previous
    lap, or since the clock was made; with ``stages`` None it does nothing
    and no clock is read."""
    if stages is None:
        return lambda name: None
    last = [time.perf_counter()]

    def lap(name):
        now = time.perf_counter()
        stages[name] = round(now - last[0], 3)
        last[0] = now

    return lap


def analyze_report(spec, genus=0, stages=None):
    """The analyze report; a ``stages`` dict receives the wall seconds of the
    spectral data and of the lattice cross-check."""
    lap = _stage_clock(stages)
    rep = genus_report(spec.sd, genus)
    a1, a2 = spec.sd.a1.f, spec.sd.a2.f
    lap("spectral")
    if genus == 0:
        lat, smin, _ = lattice_from_spectral(spec.sd, rep, genus)
        cc = count_check(lat, smin)
    else:
        # the coefficient data lives on the line; with g entering only as a
        # formula parameter the divisor-based and chain-based genus counts
        # are not comparable, so the cross-check is a g = 0 statement
        cc = {"skipped": "lattice cross-check applies to base genus 0 data"}
    lap("lattice")
    profiles = []
    for pr in sorted(rep.profiles, key=lambda p: str(place_repr(p.place))):
        profiles.append({
            "place": place_repr(pr.place),
            "k": pr.k,
            "l": pr.l,
            "discriminant_pole": pr.disc_pole,
            "r": frac_str(pr.r),
            "class": pr.classification(),
            "blowups_min": pr.blowups_min,
            "blowups_full": pr.blowups_full,
        })
    divisor = []
    for place, mult in sorted(rep.disc_divisor.items.items(),
                              key=lambda pm: str(place_repr(pm[0]))):
        divisor.append({"place": place_repr(place), "multiplicity": mult})
    return {
        "curve": spec.name,
        "operator": {"a1": ratfunc_strs(a1), "a2": ratfunc_strs(a2)},
        "ns_class": rep.ns_class_str(),
        "a": rep.a,
        "p_a": rep.p_a,
        "p_g": rep.p_g,
        "delta": rep.delta,
        "base_genus": rep.base_genus,
        "singular": rep.is_singular,
        "local_model_at_infinity": {
            "w_coefficients": [poly_strs(p) for p in rep.uw_poly],
            "singular_at_origin": rep.uw_singular_at_origin,
        },
        "discriminant_divisor": divisor,
        "pole_profiles": profiles,
        "lattice_check": {k: cc[k] for k in sorted(cc)},
    }


def wkb_report(spec, place=None, branch=None, order=None, depth=None, stages=None):
    """The wkb report and its state; a ``stages`` dict receives the wall
    seconds of the solve and of the operator check."""
    lap = _stage_clock(stages)
    st = wkb_state_for(spec, place=place, branch=branch, order=order, depth=depth)
    lap("solve")
    check = verify_operator(st)
    lap("check")
    cfg = st.config
    series = []
    for m, s in enumerate(st.S):
        body = s.body.truncate(min(s.body.order, cfg.order))
        series.append({
            "m": m,
            "log_coefficient": _coeff_repr(s.lam),
            "terms": {str(k): _coeff_repr(c) for k, c in body.items()},
            "guaranteed_order": body.order,
        })
    return {
        "curve": spec.name,
        "place": place_repr(cfg.place),
        "ramification_index": cfg.e,
        "branch": cfg.branch,
        "depth": st.depth,
        "field": st.field.name,
        "series": series,
        "operator_annihilation": {
            "ok": check["ok"],
            "levels": check["levels"],
        },
    }, st


def toprec_report(spec, level=3, stages=None):
    """The toprec report; a ``stages`` dict receives the wall seconds of each
    level, as ``level<k>`` (the curve's set-up is in none of them)."""
    curve, eng = engine_for(spec)
    lap = _stage_clock(stages)
    entries = []
    # each basis key's repr and report cell, once per report; the terms sort
    # by the tuple of reprs, which is the order of str(M): no key's repr is a
    # prefix of another's, and the multisets of one table have one length
    cells = {}
    for lv in range(1, level + 1):
        for (g, n), tab in eng.compute_level(lv):
            for k in {k for M in tab.table for k in M}.difference(cells):
                cells[k] = (repr(k), [place_repr(k[0]), k[1]])
            rows = sorted(tab.items(), key=lambda mc: tuple(cells[k][0] for k in mc[0]))
            terms = [{"key": [cells[k][1] for k in M], "coeff": frac_str(c)} for M, c in rows]
            entries.append({"g": g, "n": n, "level": lv, "terms": terms})
        lap(f"level{lv}")
    return {
        "curve": spec.name,
        "ramification_points": [place_repr(p) for p in curve.ram_points],
        "recursion_support": [place_repr(p) for p in curve.support],
        "max_level": level,
        "differentials": entries,
    }


def emit_plotdata(spec, xmin=-4.0, xmax=4.0, samples=200):
    """Real points of y^2 + a1 y + a2 = 0 over a range; display only."""
    a1, a2 = spec.sd.a1.f, spec.sd.a2.f
    rows = []
    for i in range(samples + 1):
        x = xmin + (xmax - xmin) * i / samples
        xf = Fraction(x).limit_denominator(10 ** 9)
        try:
            # a pole, or a value beyond the float range, has no point to plot
            c1 = float(a1(xf))
            c2 = float(a2(xf))
        except (ZeroDivisionError, OverflowError):
            continue
        disc = c1 * c1 - 4 * c2
        if disc < 0:
            continue
        root = disc ** 0.5
        rows.append((x, (-c1 + root) / 2, "plus"))
        rows.append((x, (-c1 - root) / 2, "minus"))
    lines = ["x,y,branch"]
    for x, yv, br in rows:
        lines.append(f"{x:.12g},{yv:.12g},{br}")
    return "\n".join(lines) + "\n"


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="quantcurve",
        description="Exact spectral-curve analysis, WKB expansion, and "
                    "topological recursion on the projective line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, curve=True):
        if curve:
            p.add_argument("--curve", required=True,
                           help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or spec file path")
        p.add_argument("--out", help="write the report to a file instead of stdout")
        p.add_argument("--timing", action="store_true",
                       help="append wall-clock timing (non-deterministic) to the report")

    p = sub.add_parser("analyze", help="discriminant, genera, pole classification, lattice check")
    add_common(p)
    p.add_argument("--genus", type=int, default=0, help="base curve genus parameter")

    p = sub.add_parser("wkb", help="solve the WKB hierarchy at a place")
    add_common(p)
    p.add_argument("--place", default=None, help="expansion place: a rational or 'inf'")
    p.add_argument("--branch", choices=["plus", "minus"], default=None)
    p.add_argument("--order", type=int, default=None, help="guaranteed series order")
    p.add_argument("--depth", type=int, default=None, help="compute S_0 .. S_depth")

    p = sub.add_parser("toprec", help="tabulate the recursion differentials")
    add_common(p)
    p.add_argument("--depth", type=int, default=3, help="maximum level 2g-2+n")

    p = sub.add_parser("verify", help="run verification suites; exit 1 on failure")
    add_common(p, curve=False)
    p.add_argument("--suite", default="all",
                   help="comma-separated: table1, wkb, cross, oracles, all")
    p.add_argument("--depth", type=int, default=None,
                   help="the cross suite checks S_2 .. S_depth (2 at least)")

    p = sub.add_parser("plotdata", help="CSV sample of the real affine curve (floats)")
    add_common(p)
    p.add_argument("--xmin", type=float, default=-4.0)
    p.add_argument("--xmax", type=float, default=4.0)
    p.add_argument("--samples", type=int, default=200)

    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    stages = {} if args.timing else None
    status = 0
    try:
        if args.command in ("analyze", "wkb", "toprec", "plotdata"):
            spec = load_curve(args.curve)
        if args.command == "analyze":
            check_size("--genus", args.genus, 0)
            payload = {"report": analyze_report(spec, genus=args.genus, stages=stages)}
        elif args.command == "wkb":
            check_size("--order", args.order, 1, MAX_ORDER)
            check_size("--depth", args.depth, 0, MAX_DEPTH)
            place = None if args.place is None else parse_point(args.place, "--place")
            rep, _ = wkb_report(spec, place=place, branch=args.branch,
                                order=args.order, depth=args.depth, stages=stages)
            payload = {"report": rep}
        elif args.command == "toprec":
            check_size("--depth", args.depth, 1, MAX_LEVEL)
            payload = {"report": toprec_report(spec, level=args.depth, stages=stages)}
        elif args.command == "plotdata":
            check_size("--samples", args.samples, 1, MAX_SAMPLES)
            for what, value in (("--xmin", args.xmin), ("--xmax", args.xmax),
                                ("the span --xmax - --xmin", args.xmax - args.xmin)):
                if not math.isfinite(value):
                    raise CurveSpecError(f"{what} must be finite, got {value}")
            _emit(args, emit_plotdata(spec, args.xmin, args.xmax, args.samples))
            return 0
        elif args.command == "verify":
            check_size("--depth", args.depth, 2, MAX_VERIFY_DEPTH)
            names = [s.strip() for s in args.suite.split(",") if s.strip()]
            if not names:
                raise CurveSpecError(
                    f"--suite names no suite; choose from {sorted(SUITES)} or 'all'")
            records = run_suites(names, depth=args.depth, stages=stages)
            all_ok = all(r["passed"] for r in records)
            for r in records:
                sys.stderr.write(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}\n")
            payload = {"report": {"suites": names, "checks": records, "all_passed": all_ok}}
            status = 0 if all_ok else 1
    except (CurveSpecError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (AssertionError, ZeroDivisionError) as exc:
        detail = " ".join(str(exc).split())
        sys.stderr.write(f"error: internal: {args.command}: {type(exc).__name__}: {detail}\n")
        return 3
    if args.timing:
        payload["meta"] = {"seconds": round(time.perf_counter() - t0, 3)}
        if stages:
            payload["meta"]["stages"] = stages
    _emit(args, serialize_report(payload))
    return status


if __name__ == "__main__":
    sys.exit(main())
