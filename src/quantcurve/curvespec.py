r"""Curve specifications: file format, validation, and the builtin registry.

A curve spec is a JSON object with exactly one coefficient entry mode:

* ``"higgs"``: a 2x2 matrix of rational functions (the operator data is
  then a1 = -trace, a2 = determinant), or
* ``"coefficients"``: ``{"a1": ..., "a2": ...}`` directly.

A rational function is a pair ``[num, den]`` of coefficient arrays indexed
by degree; coefficients are strings ("3", "-1/2") so files are bit-exact.
``den`` may be omitted for polynomials.  Optional blocks: ``"extensions"``
(square-root adjunctions checked to be non-squares, then set aside: every
spec is taken over QQ), ``"parametrization"``
(x(t), y(t), sigma(t) and a normalization point, enabling the topological
recursion), and ``"expansion"`` (default place/branch/orders for the WKB
subcommand).

The registry ships the five standard examples: airy, hermite (alias
catalan, the same spec under a second name), gauss, and the two unnamed
table rows (mixed, smooth).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .algebra import INF, Poly, QuadExtField, RatFunc
from .spectral import SpectralData


class CurveSpecError(ValueError):
    pass


# size caps shared by the spec's expansion block and the command line
MAX_ORDER = 64
MAX_DEPTH = 12


def check_size(what, value, lo, hi=None):
    """``value`` if it is None or in lo..hi (no upper bound for hi None)."""
    if value is None or lo <= value and (hi is None or value <= hi):
        return value
    bound = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
    raise CurveSpecError(f"{what} must be {bound}, got {value}")


def _parse_rational(v, where):
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError) as exc:
        raise CurveSpecError(f"{where}: bad rational {v!r}") from exc


def _parse_int(v, where, lo, hi):
    try:
        n = int(v)
    except (TypeError, ValueError) as exc:
        raise CurveSpecError(f"{where}: integer expected, got {v!r}") from exc
    return check_size(where, n, lo, hi)


def _parse_object(data, key):
    obj = data.get(key, {})
    if not isinstance(obj, dict):
        raise CurveSpecError(f"{key}: JSON object expected")
    return obj


def _parse_coeffs(arr, where):
    if not isinstance(arr, list) or not arr:
        raise CurveSpecError(f"{where}: coefficient array expected")
    return [_parse_rational(c, f"{where}[{i}]") for i, c in enumerate(arr)]


def _parse_ratfunc(obj, where):
    if isinstance(obj, list) and obj and isinstance(obj[0], list):
        if len(obj) != 2:
            raise CurveSpecError(f"{where}: expected [num, den]")
        num = _parse_coeffs(obj[0], where + ".num")
        den = _parse_coeffs(obj[1], where + ".den")
    else:
        num = _parse_coeffs(obj, where)
        den = [Fraction(1)]
    if all(c == 0 for c in den):
        raise CurveSpecError(f"{where}: zero denominator")
    return RatFunc.from_coeffs(num, den)


def parse_point(v, where):
    """A point of the projective line: a rational or "inf"."""
    if isinstance(v, str) and v.strip().lower() == "inf":
        return INF
    return _parse_rational(v, where)


@dataclass
class Parametrization:
    x: RatFunc
    y: RatFunc
    sigma: RatFunc
    normalization_point: object


@dataclass
class ExpansionRequest:
    place: object
    branch: str
    order: int
    depth: int


@dataclass
class CurveSpec:
    name: str
    sd: SpectralData
    parametrization: Parametrization | None
    expansion: ExpansionRequest


def parse_curve_spec(text_or_dict):
    """Validate a curve spec (JSON text or dict) into a CurveSpec."""
    if isinstance(text_or_dict, str):
        try:
            data = json.loads(text_or_dict)
        except json.JSONDecodeError as exc:
            raise CurveSpecError(f"invalid JSON: line {exc.lineno}: {exc.msg}") from exc
    else:
        data = text_or_dict
    if not isinstance(data, dict):
        raise CurveSpecError("curve spec must be a JSON object")
    name = data.get("name", "anonymous")
    has_higgs = "higgs" in data
    has_coeffs = "coefficients" in data
    if has_higgs == has_coeffs:
        raise CurveSpecError("exactly one of 'higgs' and 'coefficients' must be present")
    if has_higgs:
        m = data["higgs"]
        if not (isinstance(m, list) and len(m) == 2
                and all(isinstance(r, list) and len(r) == 2 for r in m)):
            raise CurveSpecError("'higgs' must be a 2x2 matrix of rational functions")
        entries = tuple(
            tuple(_parse_ratfunc(m[i][j], f"higgs[{i}][{j}]") for j in range(2)) for i in range(2)
        )
        sd = SpectralData.from_higgs(entries)
    else:
        c = data["coefficients"]
        if not isinstance(c, dict) or set(c) != {"a1", "a2"}:
            raise CurveSpecError("'coefficients' must contain exactly a1 and a2")
        sd = SpectralData(_parse_ratfunc(c["a1"], "a1"), _parse_ratfunc(c["a2"], "a2"))
    extensions = data.get("extensions", [])
    if not isinstance(extensions, list):
        raise CurveSpecError("extensions: array expected")
    extensions = [_parse_rational(d, f"extensions[{i}]") for i, d in enumerate(extensions)]
    for i, dv in enumerate(extensions):
        try:
            QuadExtField(dv)  # raises if the adjoined element is already a square
        except ValueError as exc:
            raise CurveSpecError(f"extensions[{i}]: {exc}") from exc
    par = None
    if "parametrization" in data:
        p = _parse_object(data, "parametrization")
        x, y, sigma = (_parse_ratfunc(p.get(k), f"parametrization.{k}") for k in ("x", "y", "sigma"))
        point = parse_point(p.get("normalization_point", 0), "parametrization.normalization_point")
        par = Parametrization(x=x, y=y, sigma=sigma, normalization_point=point)
    e = _parse_object(data, "expansion")
    exp = ExpansionRequest(
        place=parse_point(e.get("place", "inf"), "expansion.place"),
        branch=e.get("branch", "plus"),
        order=_parse_int(e.get("order", 12), "expansion.order", 1, MAX_ORDER),
        depth=_parse_int(e.get("depth", 3), "expansion.depth", 0, MAX_DEPTH),
    )
    if exp.branch not in ("plus", "minus"):
        raise CurveSpecError("expansion.branch must be plus or minus")
    return CurveSpec(name=name, sd=sd, parametrization=par, expansion=exp)


# ---------------------------------------------------------------------------
# builtin registry: the five standard Higgs fields, with the two rational
# parametrizations used by the enumerative cross-checks


BUILTIN_SPECS = {
    "airy": {
        "name": "airy",
        "higgs": [[["0"], ["1"]], [["0", "1"], ["0"]]],
        "parametrization": {
            "x": [["4"], ["0", "0", "1"]],
            "y": [["-2"], ["0", "1"]],
            "sigma": [["0", "-1"], ["1"]],
            "normalization_point": "0",
        },
        "expansion": {"place": "inf", "branch": "minus", "order": 16, "depth": 4},
    },
    "hermite": {
        "name": "hermite",
        "higgs": [[["0"], ["1"]], [["-1"], ["0", "-1"]]],
        "parametrization": {
            "x": [["2", "0", "2"], ["-1", "0", "1"]],
            "y": [["-1", "-1"], ["-1", "1"]],
            "sigma": [["0", "-1"], ["1"]],
            "normalization_point": "-1",
        },
        "expansion": {"place": "inf", "branch": "plus", "order": 16, "depth": 4},
    },
    "gauss": {
        "name": "gauss",
        "higgs": [
            [["0"], [["1"], ["0", "1"]]],
            [[["1"], ["4", "-4"]], [["-1", "2"], ["0", "1", "-1"]]],
        ],
        "expansion": {"place": "0", "branch": "plus", "order": 10, "depth": 2},
    },
    "mixed": {
        "name": "mixed",
        "higgs": [[["0"], ["1"]], [[["-1"], ["1", "1"]], ["-1"]]],
        "expansion": {"place": "inf", "branch": "plus", "order": 12, "depth": 2},
    },
    "smooth": {
        "name": "smooth",
        "higgs": [
            [["0"], ["1"]],
            [[["1"], ["-1", "0", "1"]], [["0", "0", "-2"], ["-1", "0", "1"]]],
        ],
        "expansion": {"place": "0", "branch": "plus", "order": 10, "depth": 2},
    },
}

# catalan is an alias of hermite: the same operator and the same
# parametrization under a second name
BUILTIN_SPECS["catalan"] = dict(BUILTIN_SPECS["hermite"], name="catalan")

BUILTIN_NAMES = tuple(sorted(BUILTIN_SPECS))


def load_curve(name_or_path):
    """A builtin name, or a path to a curve spec file."""
    if name_or_path in BUILTIN_SPECS:
        return parse_curve_spec(dict(BUILTIN_SPECS[name_or_path]))
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CurveSpecError(
            f"{name_or_path!r} is neither a builtin ({', '.join(BUILTIN_NAMES)}) "
            f"nor a readable file: {exc}"
        ) from exc
    return parse_curve_spec(text)


# ---------------------------------------------------------------------------
# exact serialization helpers (all numbers as strings, never floats)


def frac_str(q):
    return str(q)


def poly_strs(p):
    return [frac_str(c) for c in p.coeffs]


def ratfunc_strs(f):
    return [poly_strs(f.num), poly_strs(f.den)]


def place_repr(place):
    if place is INF:
        return "inf"
    if isinstance(place, Poly):
        if place.degree == 1:
            return frac_str(-place.coeffs[0])
        return {"factor": poly_strs(place), "degree": place.degree}
    return frac_str(place)


# the types of the items of a list whose text the report writer reuses: a str
# never equals an int, and equal ints have one text (bools, equal to 0 and 1,
# and floats, with 0.0 == -0.0, are left out)
_LEAF_TYPES = frozenset((str, int))
_INF = float("inf")


def serialize_report(report):
    """Canonical JSON text for a report dict: the text of
    ``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    With ``indent`` set, ``json`` runs its pure-Python encoder.  This writer
    makes the same text with json's C string encoder, and writes a list of
    strs and ints, such as a basis key ``[place, d]``, once per indentation
    depth.  A value json cannot write raises ``TypeError``, as in json.
    """
    out = []
    _write(report, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _scalar_text(o):
    """The JSON text of a scalar, as json writes it."""
    if isinstance(o, str):
        return _json_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key_text(k):
    """A dict key as json writes it: a str, or the quoted text of a scalar."""
    if isinstance(k, str):
        return _json_str(k)
    if isinstance(k, (int, float)) or k is None:
        return _json_str(_scalar_text(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write(o, nl, out, leaves):
    """Append the JSON text of o to out.  nl is a newline and the indentation
    of o's line; ``leaves`` maps (nl, *items) to the text of a list of strs
    and ints at that depth.  No type is both a container and a scalar, so
    the containers can go first."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            head = sep + _key_text(k) + ": "
            if type(v) is str:
                out.append(head + _json_str(v))
            else:
                out.append(head)
                _write(v, inner, out, leaves)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if _LEAF_TYPES.issuperset(map(type, o)):
            key = (nl, *o)
            text = leaves.get(key)
            if text is None:
                items = [_json_str(x) if type(x) is str else int.__repr__(x) for x in o]
                text = leaves[key] = "[" + inner + ("," + inner).join(items) + nl + "]"
            out.append(text)
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write(v, inner, out, leaves)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(_scalar_text(o))
