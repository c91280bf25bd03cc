import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import quantcurve
from quantcurve.algebra import RatFunc
from quantcurve.cli import (
    MAX_SAMPLES,
    MAX_VERIFY_DEPTH,
    analyze_report,
    emit_plotdata,
    main,
    toprec_report,
    wkb_report,
)
from quantcurve.curvespec import (
    BUILTIN_NAMES,
    BUILTIN_SPECS,
    CurveSpecError,
    load_curve,
    parse_curve_spec,
    serialize_report,
)
from quantcurve.toprec import TopRecEngine


def rf(num, den=(1,)):
    return RatFunc.from_coeffs(num, den)


def test_builtin_airy_coefficients():
    spec = load_curve("airy")
    assert spec.sd.a1.f.is_zero()
    assert spec.sd.a2.f == rf([0, -1])


def test_higgs_matrix_mode_hermite():
    spec = parse_curve_spec({
        "name": "h",
        "higgs": [[["0"], ["1"]], [["-1"], ["0", "-1"]]],
    })
    assert spec.sd.a1.f == rf([0, 1])
    assert spec.sd.a2.f == rf([1])


def test_both_modes_rejected():
    with pytest.raises(CurveSpecError, match="exactly one"):
        parse_curve_spec({
            "higgs": [[["0"], ["1"]], [["0", "1"], ["0"]]],
            "coefficients": {"a1": ["0"], "a2": ["0", "-1"]},
        })


def test_zero_denominator_rejected():
    with pytest.raises(CurveSpecError, match="zero denominator"):
        parse_curve_spec({"coefficients": {"a1": ["0"], "a2": [["1"], ["0"]]}})


def test_square_extension_rejected():
    with pytest.raises(ValueError):
        parse_curve_spec({
            "coefficients": {"a1": ["0"], "a2": ["0", "-1"]},
            "extensions": ["4"],
        })


def test_syntax_error_diagnostics():
    with pytest.raises(CurveSpecError, match="line"):
        parse_curve_spec("{not json")


def test_builtin_names():
    assert set(BUILTIN_NAMES) == {"airy", "catalan", "gauss", "hermite", "mixed", "smooth"}


def test_analyze_report_golden():
    rep = analyze_report(load_curve("airy"))
    assert rep["ns_class"] == "2C0+5F"
    assert rep["p_a"] == 2 and rep["p_g"] == 0
    prof = {p["place"]: p for p in rep["pole_profiles"]}
    assert prof["inf"]["l"] == 5 and prof["inf"]["r"] == "5/2"
    assert prof["inf"]["class"] == "irregular 3/2"
    assert prof["inf"]["blowups_full"] == 3
    assert rep["lattice_check"]["genus"] == 0


def test_report_roundtrip():
    rep = {"report": analyze_report(load_curve("gauss"))}
    text = serialize_report(rep)
    assert json.loads(text) == rep
    assert serialize_report(json.loads(text)) == text


# the report writer against json.dumps(x, sort_keys=True, indent=2) + "\n"

# quotes, backslashes, control characters and non-ASCII ones, often
_SPECIAL_CHARS = st.sampled_from(list('"\\/\b\f\n\r\t\x00\x01\x1f\x7f\x80\u2028\xe9\u20ac\U0001f600'))
_JSON_STRS = st.text(st.characters() | _SPECIAL_CHARS, max_size=6)
_JSON_SCALARS = (
    st.none() | st.booleans() | _JSON_STRS
    | st.integers(-3, 3) | st.integers(-(2 ** 70), 2 ** 70)
    | st.floats() | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, float("nan"), float("inf"), float("-inf")])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_STRS, inner, max_size=4)),
    max_leaves=24,
)


def _json_text(x):
    return json.dumps(x, sort_keys=True, indent=2) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_JSON_VALUES)
# equal items of other types in lists at one depth: a bool is not an int, an
# int not a float, and -0.0 not 0.0
@example({"a": [1, "x"], "b": [True, "x"], "c": [1.0, "x"], "d": [0.0], "e": [-0.0], "f": [[], {}]})
@example([[1, 2], (1, 2), [True, False], [0, 1], ["1", 2], [1, "2"]])
# one list of strs and ints at three depths
@example({"a": ["x", 1], "b": [["x", 1], [["x", 1]]]})
def test_serialize_report_writes_what_json_writes(x):
    assert serialize_report(x) == _json_text(x)


@pytest.mark.parametrize("x", [
    {1: "a", 2: "b", -3: "c"},
    {1.5: 0, -0.0: 1, float("inf"): 2},
    {True: 1, False: 0},
    {None: [None]},
])
def test_serialize_report_writes_non_str_keys_as_json(x):
    assert serialize_report(x) == _json_text(x)


@pytest.mark.parametrize("x", [
    Fraction(1, 2),
    {"report": [Fraction(1, 2)]},
    {"report": {"a": {Fraction(1)}}},
    {(1, 2): "a"},
    {1: "a", "b": 2},
])
def test_serialize_report_raises_where_json_raises(x):
    with pytest.raises(TypeError) as want:
        _json_text(x)
    with pytest.raises(TypeError) as got:
        serialize_report(x)
    assert str(got.value) == str(want.value)


def test_reports_are_deterministic():
    a = serialize_report({"report": analyze_report(load_curve("hermite"))})
    b = serialize_report({"report": analyze_report(load_curve("hermite"))})
    assert a == b
    wa, _ = wkb_report(load_curve("gauss"), order=6, depth=2)
    wb, _ = wkb_report(load_curve("gauss"), order=6, depth=2)
    assert serialize_report(wa) == serialize_report(wb)


def test_wkb_report_gauss():
    rep, _ = wkb_report(load_curve("gauss"), order=8, depth=2)
    assert rep["place"] == "0" and rep["ramification_index"] == 1
    s1 = rep["series"][1]["terms"]
    assert s1["2"] == "-7/32" and s1["3"] == "-53/96"
    s2 = rep["series"][2]["terms"]
    assert s2["2"] == "7/32" and s2["3"] == "113/96"
    assert rep["operator_annihilation"]["ok"]


def test_toprec_report_airy():
    rep = toprec_report(load_curve("airy"), level=2)
    entries = {(e["g"], e["n"]): e["terms"] for e in rep["differentials"]}
    assert entries[(1, 1)] == [{"key": [["inf", 4]], "coeff": "-1/128"}]
    assert entries[(0, 3)] == [{"key": [["inf", 2]] * 3, "coeff": "-1/16"}]


# sha256 of the serialized toprec reports, copied from perfbench/digests.json:
# any change to a table, a coefficient or the layout of these reports shows
TOPREC_REPORT_SHA256 = {
    ("airy", 3): "bb69b319b4c69675121b8a6226f8878f31ad454ab70d79e5afaa57c8bea84f0d",
    ("airy", 4): "0cb5b1341ccc23b65fe5e4dd17d62bc182dde40c5f741b53133c6bbd9d260d42",
    ("airy", 5): "e671c806eddb0acd1550d151854aeded756da44b30807b724fac3194ceb1855b",
    ("catalan", 3): "4e0a0ba69954c55398b194b3d904c9a1a35128c88efb7fe6941819175c9e0ed1",
    ("catalan", 4): "677156e5d82be4a7f22832e4d1578a0806146259bdf479731738162e4b6c3304",
    ("catalan", 5): "a785ae8edba87dcbb6f01b31be0f7ff4282aa869055dee107afe8bd9e9084f53",
}


@pytest.mark.parametrize("curve,level", sorted(TOPREC_REPORT_SHA256))
def test_toprec_report_bytes_unchanged(curve, level):
    text = serialize_report({"report": toprec_report(load_curve(curve), level=level)})
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TOPREC_REPORT_SHA256[curve, level]


# sha256 of the serialized analyze reports of every builtin: any change to a
# divisor, a pole profile, the local model or the layout of these reports shows
ANALYZE_REPORT_SHA256 = {
    "airy": "a50cd7de66371b930970d13b4f6f96d11fc18f315c4d239da73d3cef8693ac02",
    "catalan": "3ee4863fe9e42a4ddf1cde8d0c3d19919351afa232e32abb94110d7c16075ab8",
    "gauss": "85a9e38f40a725ac00782305f8fd954c642c9f23b0228b9ed5730e61d184c49a",
    "hermite": "497d403dcaa9ca2ed628791950e6a553ed48eb7c775bf23705516f08e788a2fa",
    "mixed": "e321918d2c2b93a3cfa4346f627bb1b6cdca502db0287efcb8d664e4e968b709",
    "smooth": "55a673fb767a9450b9af7688a11990e84e835bbd590cbf1a42b9a49184083265",
}


@pytest.mark.parametrize("curve", sorted(ANALYZE_REPORT_SHA256))
def test_analyze_report_bytes_unchanged(curve):
    text = serialize_report({"report": analyze_report(load_curve(curve))})
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == ANALYZE_REPORT_SHA256[curve]


# sha256 of the serialized wkb reports of every builtin at the spec's default
# place, branch, order and depth: any change to a series, the chart or the
# layout of these reports shows
WKB_REPORT_SHA256 = {
    ("airy", None, None, None): "78697a2e85587dd6599c5fd57aab49e18592ef00369f18c06db713851fffbfa0",
    ("catalan", None, None, None): "45a9b0aa0bc66247eb48fb550cbd7943914a86a664e75957c6adcb872e5bd9a5",
    ("gauss", None, None, None): "d9450cf9fb82107f56823ce030929fe08d241d67ff7ad12ff78a9721a83e4594",
    ("hermite", None, None, None): "fa4e57109c866bc48c7b3819e0b617366d768c0ac3c9ebdbd4310c14beded6c3",
    ("mixed", None, None, None): "3b716fcd276bcc62860cf9d2bd95f2005a10ed2f4a2aa77dc1631c26ba4ebff1",
    ("smooth", None, None, None): "e98852421dbe6fd881ad1982acb6d26c224fbe805bc045dd298cceaf51727bdd",
    # deeper reports, (curve, place, order, depth): over QQ on e = 1 and e =
    # 2 charts, and over QQ(sqrt(-4)); they print the order bookkeeping of
    # every series operation the solver and the operator check run
    ("gauss", Fraction(0), 20, 6): "f7f891944c00800af9a42d7b9893cf33cc13529b37bf2d7238809c7085f20239",
    ("smooth", None, 24, 6): "2624133310c7194198a42578de057da9423a82f287f909d8c32c358585179eb9",
    ("airy", None, 24, 6): "443696744d653ca2c545a6e6f402363ad87aea4f7f68d52a8bc6aa1330fea000",
    ("mixed", None, 24, 6): "3b29b25fa5cf688a0afbe2ec335fb25189d6b01e2f3be38c59e3a377422ae00d",
}


def _wkb_case_id(case):
    curve, *rest = case
    return curve if rest == [None] * 3 else "-".join(map(str, case))


@pytest.mark.parametrize("case", list(WKB_REPORT_SHA256), ids=_wkb_case_id)
def test_wkb_report_bytes_unchanged(case):
    curve, place, order, depth = case
    rep, _ = wkb_report(load_curve(curve), place=place, order=order, depth=depth)
    text = serialize_report({"report": rep})
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == WKB_REPORT_SHA256[case]


# sha256 of the stdout of two verify runs: the "through order N" details of
# the specializations print the order bookkeeping of the series reads
VERIFY_REPORT_SHA256 = {
    ("--suite", "all"): "9a4beffc4881917bc35f7cbdae1726bb98855a1861c09d2775441508a91a1978",
    ("--suite", "cross", "--depth", "7"): "bb1a96491fe83880519e7f4795624daf5a67d0f679a3394d75c5d1ad37c3f3ea",
}


@pytest.mark.parametrize("args", sorted(VERIFY_REPORT_SHA256))
def test_verify_report_bytes_unchanged(args, capsys):
    assert main(["verify", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_REPORT_SHA256[args]


def test_cli_wkb_timing_stages(capsys):
    argv = ["wkb", "--curve", "catalan", "--depth", "4"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    meta = timed.pop("meta")
    # the stages sit beside the total, outside the deterministic payload
    assert set(meta) == {"seconds", "stages"} and set(meta["stages"]) == {"solve", "check"}
    assert all(isinstance(t, float) and t >= 0 for t in meta["stages"].values())
    assert serialize_report(timed) == plain and "meta" not in json.loads(plain)


@pytest.mark.parametrize("argv, names", [
    (["toprec", "--curve", "catalan", "--depth", "3"], {"level1", "level2", "level3"}),
    (["analyze", "--curve", "airy"], {"spectral", "lattice"}),
])
def test_cli_toprec_and_analyze_timing_stages(argv, names, capsys):
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    meta = timed.pop("meta")
    assert set(meta) == {"seconds", "stages"} and set(meta["stages"]) == names
    assert all(isinstance(t, float) and t >= 0 for t in meta["stages"].values())
    assert serialize_report(timed) == plain and "meta" not in json.loads(plain)


def test_reports_read_no_clock_without_stages(monkeypatch):
    def no_clock():
        raise AssertionError("a report without stages read the clock")

    monkeypatch.setattr(quantcurve.cli, "time", SimpleNamespace(perf_counter=no_clock))
    analyze_report(load_curve("airy"))
    toprec_report(load_curve("airy"), level=2)
    wkb_report(load_curve("airy"), depth=1)


def test_cli_verify_timing_stages(capsys):
    argv = ["verify", "--suite", "all"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    meta = timed.pop("meta")
    # one stage per suite that "all" runs, beside the total
    assert set(meta) == {"seconds", "stages"}
    assert set(meta["stages"]) == {"table1", "wkb", "cross", "oracles"}
    assert all(isinstance(t, float) and t >= 0 for t in meta["stages"].values())
    assert serialize_report(timed) == plain and "meta" not in json.loads(plain)


def test_toprec_requires_parametrization():
    with pytest.raises(ValueError, match="parametrization"):
        toprec_report(load_curve("gauss"), level=1)


def test_plotdata_hermite_real_locus():
    csv = emit_plotdata(load_curve("hermite"), -4.0, 4.0, 80)
    lines = csv.strip().split("\n")
    assert lines[0] == "x,y,branch"
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert xs and all(abs(x) >= 2 - 1e-9 for x in xs)


def test_plotdata_airy_symmetric_branches():
    csv = emit_plotdata(load_curve("airy"), 0.0, 4.0, 40)
    rows = [l.split(",") for l in csv.strip().split("\n")[1:]]
    by_x = {}
    for x, y, br in rows:
        by_x.setdefault(x, []).append(float(y))
    for x, ys in by_x.items():
        assert len(ys) == 2 and abs(ys[0] + ys[1]) < 1e-9


def test_plotdata_gauss_unit_interval():
    csv = emit_plotdata(load_curve("gauss"), 0.05, 0.95, 30)
    rows = csv.strip().split("\n")[1:]
    assert len(rows) >= 60  # two real branches everywhere on (0,1)


def test_plotdata_empty_locus_header_only():
    spec = parse_curve_spec({"coefficients": {"a1": ["0"], "a2": ["1"]}})  # y^2 = -1
    csv = emit_plotdata(spec, -2.0, 2.0, 20)
    assert csv == "x,y,branch\n"


def test_cli_plotdata_skips_values_beyond_float_range(tmp_path, capsys):
    # a2 = x^3 at x ~ 1e200 does not fit a float: the sample is skipped like a pole
    spec_file = tmp_path / "curve.json"
    spec_file.write_text(json.dumps({"coefficients": {"a1": ["0"], "a2": ["0", "0", "0", "1"]}}))
    argv = ["plotdata", "--curve", str(spec_file), "--xmin=1e200", "--xmax=2e200", "--samples", "2"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == "x,y,branch\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("bounds,line", [
    (["--xmin=nan"], "--xmin must be finite, got nan"),
    (["--xmin=inf"], "--xmin must be finite, got inf"),
    (["--xmax=-inf"], "--xmax must be finite, got -inf"),
    (["--xmin=-1e308", "--xmax=1e308"], "the span --xmax - --xmin must be finite, got inf"),
])
def test_cli_plotdata_rejects_a_non_finite_range(bounds, line, capsys):
    assert main(["plotdata", "--curve", "airy", *bounds]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {line}\n"


def test_cli_analyze_exit_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["analyze", "--curve", "smooth", "--out", str(out1)]) == 0
    assert main(["analyze", "--curve", "smooth", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_unknown_curve_exit_code():
    assert main(["analyze", "--curve", "nonexistent"]) == 2


def test_cli_wkb_guards():
    assert main(["wkb", "--curve", "gauss", "--order", "999"]) == 2
    assert main(["wkb", "--curve", "gauss", "--depth", "999"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "cross", "--depth", str(MAX_VERIFY_DEPTH + 1)],
    ["verify", "--suite", "cross", "--depth", "40"],
    ["verify", "--suite", "cross", "--depth", "0"],
    ["verify", "--suite", "cross", "--depth", "-1"],
    ["plotdata", "--curve", "airy", "--samples", str(MAX_SAMPLES + 1)],
    ["plotdata", "--curve", "airy", "--samples", "0"],
    ["plotdata", "--curve", "airy", "--samples", "-5"],
    ["wkb", "--curve", "gauss", "--order", "0"],
    ["wkb", "--curve", "gauss", "--order", "-3"],
    ["wkb", "--curve", "gauss", "--depth", "-1"],
    ["toprec", "--curve", "airy", "--depth", "0"],
    ["toprec", "--curve", "airy", "--depth", "-2"],
    ["toprec", "--curve", "airy", "--depth", "7"],
    ["analyze", "--curve", "airy", "--genus", "-1"],
    ["wkb", "--curve", "gauss", "--place", "1/0"],
    ["wkb", "--curve", "gauss", "--place", "x"],
    ["verify", "--suite", "cross", "--depth", "1"],
    ["verify", "--suite", ""],
    ["verify", "--suite", ",,"],
])
def test_cli_size_knobs_capped(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and argv[-2] in err


def _airy_with(path, value):
    """The airy builtin spec with the entry at a dotted path set to value,
    or removed for None."""
    spec = json.loads(json.dumps(BUILTIN_SPECS["airy"]))
    *outer, last = path.split(".")
    node = spec
    for key in outer:
        node = node[key]
    if value is None:
        del node[last]
    else:
        node[last] = value
    return spec


@pytest.mark.parametrize("path,value,field", [
    ("parametrization.y", None, "parametrization.y"),
    ("parametrization.normalization_point", "1/0", "parametrization.normalization_point"),
    ("expansion.place", "1/0", "expansion.place"),
    ("extensions", ["2", "1/0"], "extensions[1]"),
    ("extensions", ["9/4"], "extensions[0]"),
    ("extensions", "2", "extensions"),
    ("expansion.order", 100000, "expansion.order"),
    ("expansion.order", -3, "expansion.order"),
    ("expansion.order", "twelve", "expansion.order"),
    ("expansion.depth", 50, "expansion.depth"),
    ("expansion.depth", -1, "expansion.depth"),
    ("expansion", ["inf"], "expansion"),
    ("higgs", [0, 1], "higgs"),
])
def test_cli_bad_spec_file(path, value, field, tmp_path, capsys):
    spec_file = tmp_path / "curve.json"
    spec_file.write_text(json.dumps(_airy_with(path, value)))
    assert main(["wkb", "--curve", str(spec_file)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


@pytest.mark.parametrize("exc", [
    AssertionError("W_(1, 1) fails the symmetry re-check\nat ((inf, 4),)"),
    ZeroDivisionError("division by zero"),
])
def test_cli_internal_invariant_exit_code(exc, monkeypatch, capsys):
    def broken(self, g, n):
        raise exc

    monkeypatch.setattr(TopRecEngine, "_compute_w", broken)
    assert main(["toprec", "--curve", "airy", "--depth", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: internal: toprec: {type(exc).__name__}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# the discriminant -x^z + x^(z+1) has a zero of order z at 0: a branch point
# (e = 2) only for odd z, however high z is; each depth of the hierarchy
# loses z e/2 + e tau-orders there, which the default knobs must budget for
@pytest.mark.parametrize("z,e", [(8, 1), (7, 2), (12, 1)])
def test_cli_wkb_chart_at_high_order_discriminant_zero(z, e, tmp_path, capsys):
    spec_file = tmp_path / "curve.json"
    spec_file.write_text(json.dumps({"coefficients": {"a1": ["0"], "a2": ["0"] * z + ["1", "-1"]}}))
    assert main(["wkb", "--curve", str(spec_file), "--place", "0"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["ramification_index"] == e
    assert rep["operator_annihilation"]["ok"]


def test_cli_wkb_cancelling_pole_of_a1(tmp_path, capsys):
    # a1 = x^-20, a2 = a1^2/4 - x/4 = (1 - x^41)/(4 x^40): discriminant x
    spec_file = tmp_path / "curve.json"
    spec_file.write_text(json.dumps({"coefficients": {
        "a1": [["1"], ["0"] * 20 + ["1"]],
        "a2": [["1"] + ["0"] * 40 + ["-1"], ["0"] * 40 + ["4"]]}}))
    assert main(["wkb", "--curve", str(spec_file), "--place", "0", "--depth", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["ramification_index"] == 2 and rep["depth"] == 2
    assert rep["operator_annihilation"]["ok"]


def test_cli_toprec_conjugate_support_exit_line(capsys):
    # y = -2/t + 1/(t - 1), x = 4/t^2: a node at the conjugate pair t = +-sqrt 2
    spec = Path(__file__).parent / "specs" / "conjugate_node.json"
    assert main(["toprec", "--curve", str(spec), "--depth", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: Omega has an irrational point (factor -2 + (1)*x^2); "
                   "the residue engine needs rational support\n")


# the singular curves of the generalized recursion (x = 4/t^2, sigma(t) = -t):
# a cusp at the branch point t = inf, and a node where t = 2 and t = -2 meet
@pytest.mark.parametrize("name,line", [
    ("cusp", "W_(0, 3) fails the symmetry re-check at ((inf, 2), (inf, 2), (inf, 4)): "
             "{(inf, 2): Fraction(3, 16), (inf, 4): Fraction(1, 16)}"),
    ("node", "W_(0, 3): nonzero residue contribution at non-ramification point 2"),
])
def test_cli_toprec_singular_curve_exit_line(name, line, capsys):
    spec = Path(__file__).parent / "specs" / f"{name}.json"
    assert main(["toprec", "--curve", str(spec), "--depth", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: internal: toprec: AssertionError: {line}\n"


def test_cli_factor_degree_cap_exit(tmp_path, capsys):
    spec_file = tmp_path / "curve.json"
    spec_file.write_text(json.dumps({"coefficients": {"a1": ["0"], "a2": ["1"] * 41}}))
    assert main(["analyze", "--curve", str(spec_file)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "degree 40" in err


def test_cli_commands_never_import_sympy():
    child = (
        "import sys\n"
        "from quantcurve.cli import main\n"
        "for argv in (['analyze', '--curve', 'airy'], ['toprec', '--curve', 'catalan', '--depth', '2'],\n"
        "             ['wkb', '--curve', 'gauss']):\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'sympy' not in sys.modules, 'sympy imported'\n"
    )
    src = str(Path(quantcurve.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_plotdata_samples_at_cap(tmp_path):
    out = tmp_path / "plot.csv"
    assert main(["plotdata", "--curve", "airy", "--samples", str(MAX_SAMPLES),
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * (MAX_SAMPLES // 2 + 1)


def test_cli_verify_suite_exit(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--suite", "table1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["report"]["all_passed"] is True
    assert all(c["passed"] for c in data["report"]["checks"])


def test_cli_file_spec_roundtrip(tmp_path):
    spec_file = tmp_path / "curve.json"
    spec_file.write_text(json.dumps({
        "name": "custom",
        "coefficients": {"a1": ["0", "1"], "a2": ["1"]},
    }))
    out = tmp_path / "rep.json"
    assert main(["analyze", "--curve", str(spec_file), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["ns_class"] == "2C0+4F"


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "quantcurve.cli", "analyze", "--curve", "airy"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)["report"]
    assert rep["ns_class"] == "2C0+5F"



def test_toprec_and_verify_reports_deterministic(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"t{i}.json"
        assert main(["toprec", "--curve", "airy", "--depth", "3", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    outs = []
    for i in range(2):
        out = tmp_path / f"v{i}.json"
        assert main(["verify", "--suite", "table1", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
