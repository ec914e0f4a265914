"""Problem-document parsing, validation, and exact output formatting.

Documents are JSON, schema version 1.  Rationals travel as integers or
as strings `-?digits` or `-?digits/digits` ("-3", "3/2"), at most
`lattice.MAX_DIGITS` digits on each side of the slash; floats, exponents, decimal
points, signs other than a leading minus and whitespace are rejected, so
exactness survives the wire and parsing stays cheap.  Validation errors
carry the JSON path of the offending field.
"""
from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import InputError, InternalError
from .lattice import CurveRecord, DivisorClass, SurfaceModel, rational_string
from .qext import format_exact
from .raywalk import FlagSpec
from .toric import ToricDivisor, ToricFan

SCHEMA_VERSION = 1


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return rational_string(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{where}: cannot parse rational {value[:40]!r}") from None
    if isinstance(value, float):
        raise InputError(f"{where}: floats are not exact; write \"p/q\" instead")
    raise InputError(f"{where}: expected a rational, got {type(value).__name__}")


def _rationals(values: list, where: str) -> list[Fraction]:
    """parse_rational over a list, spelling out `where[i]` only for a non-int."""
    return [
        Fraction(x) if type(x) is int else parse_rational(x, f"{where}[{i}]")
        for i, x in enumerate(values)
    ]


def parse_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: expected an integer")
    return value


def _expect(doc: dict, key: str, where: str):
    if key not in doc:
        raise InputError(f"{where}: missing required field {key!r}")
    return doc[key]


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past the digit limit, or bad UTF-8
        raise InputError(f"{path}: cannot load document: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: document nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: document root must be an object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise InputError(
            f"{path}: field 'schema' must be {SCHEMA_VERSION}, got {schema!r}"
        )
    return doc


def parse_surface(doc: dict) -> SurfaceModel:
    """The surface's model.  Every entry and label is type-checked here, once,
    with its document path; the model runs every other check."""
    surf = _expect(doc, "surface", "document")
    if not isinstance(surf, dict):
        raise InputError("surface: must be an object")
    rank = parse_int(_expect(surf, "rank", "surface"), "surface.rank")
    matrix = _expect(surf, "matrix", "surface")
    if not isinstance(matrix, list):
        raise InputError("surface.matrix: must be a list of rows")
    for i, row in enumerate(matrix):
        if not (type(row) is list and set(map(type, row)) <= {int}):
            if not isinstance(row, list):
                raise InputError(f"surface.matrix[{i}]: must be a list")
            for j, x in enumerate(row):
                parse_int(x, f"surface.matrix[{i}][{j}]")
    declared = surf.get("curves", [])
    if not isinstance(declared, list):
        raise InputError("surface.curves: must be a list of curve objects")
    curves = []
    for i, cv in enumerate(declared):
        # C-level checks first; any other curve takes _curve's, in order
        if type(cv) is dict:
            label, cls = cv.get("label"), cv.get("class")
            if type(label) is str and type(cls) is list and set(map(type, cls)) <= {int}:
                curves.append(CurveRecord(label, tuple(cls)))
                continue
        curves.append(_curve(cv, f"surface.curves[{i}]"))
    witness = _expect(surf, "ample_witness", "surface")
    if not isinstance(witness, list):
        raise InputError("surface.ample_witness: must be a list")
    wit = _rationals(witness, "surface.ample_witness")
    return SurfaceModel(rank, matrix, curves, wit, _typed=True)


def _curve(cv, where: str) -> CurveRecord:
    if not isinstance(cv, dict):
        raise InputError(f"{where}: must be an object")
    label = _expect(cv, "label", where)
    if not isinstance(label, str):
        raise InputError(f"{where}.label: must be a string")
    cls = _expect(cv, "class", where)
    if not isinstance(cls, list):
        raise InputError(f"{where}.class: must be a list of integers")
    for j, x in enumerate(cls):
        parse_int(x, f"{where}.class[{j}]")
    return CurveRecord(label, tuple(cls))


def parse_divisor(doc: dict, model: SurfaceModel) -> DivisorClass:
    vec = _expect(doc, "divisor", "document")
    if not isinstance(vec, list) or len(vec) != model.rank:
        raise InputError(f"divisor: must be a list of {model.rank} rationals")
    return DivisorClass(_rationals(vec, "divisor"))


def parse_flag(doc: dict, model: SurfaceModel) -> FlagSpec:
    """The document's flag, its shape checked here with paths and its
    curve and multiplicities by the FlagSpec it is built into."""
    flag = _expect(doc, "flag", "document")
    if not isinstance(flag, dict):
        raise InputError("flag: must be an object")
    curve = _expect(flag, "curve", "flag")
    if isinstance(curve, str):
        target = curve
        model.curve(curve)
    elif isinstance(curve, list):
        if len(curve) != model.rank:
            raise InputError(f"flag.curve: class must have {model.rank} coordinates")
        target = DivisorClass(_rationals(curve, "flag.curve"))
    else:
        raise InputError("flag.curve: must be a curve label or a class vector")
    raw = flag.get("local_mult", {})
    if not isinstance(raw, dict):
        raise InputError("flag.local_mult: must be an object")
    local = {}
    for label, m in raw.items():
        model.curve(label)
        local[label] = parse_int(m, f"flag.local_mult[{label!r}]")
    return FlagSpec(model, target, local)


def parse_candidates(doc: dict, model: SurfaceModel) -> list[str]:
    if "candidates" not in doc:
        return list(model.labels())
    return parse_labels(doc, model, "candidates")


def parse_labels(doc: dict, model: SurfaceModel, key: str) -> list[str]:
    labels = _expect(doc, key, "document")
    if not isinstance(labels, list):
        raise InputError(f"{key}: must be a list of labels")
    for i, l in enumerate(labels):
        if not isinstance(l, str):
            raise InputError(f"{key}[{i}]: must be a label")
        model.curve(l)
    return list(labels)


def parse_fan(doc: dict) -> ToricFan:
    fan = _expect(doc, "fan", "document")
    if not isinstance(fan, dict):
        raise InputError("fan: must be an object")
    rays = _expect(fan, "rays", "fan")
    if not isinstance(rays, list):
        raise InputError("fan.rays: must be a list of 2d integer vectors")
    out = []
    for i, r in enumerate(rays):
        if not isinstance(r, list) or len(r) != 2:
            raise InputError(f"fan.rays[{i}]: must be a pair of integers")
        out.append(
            (parse_int(r[0], f"fan.rays[{i}][0]"), parse_int(r[1], f"fan.rays[{i}][1]"))
        )
    return ToricFan(out)


def parse_toric_divisor(doc: dict, fan: ToricFan) -> ToricDivisor:
    coeffs = _expect(doc, "toric_divisor", "document")
    if not isinstance(coeffs, list) or len(coeffs) != len(fan):
        raise InputError(f"toric_divisor: must list one integer per ray ({len(fan)})")
    return ToricDivisor(
        [parse_int(x, f"toric_divisor[{i}]") for i, x in enumerate(coeffs)]
    )


# -- output -------------------------------------------------------------------


def fmt(x) -> str:
    """Exact string form of any value the package produces."""
    return format_exact(x)


def fmt_point(p) -> list[str]:
    return [fmt(p[0]), fmt(p[1])]


def dump_json(payload: dict) -> str:
    """`json.dumps(payload, indent=2) + "\\n"`, byte for byte, written directly:
    with an indent the stdlib leaves its C encoder for a pure-Python one.
    Payloads hold dicts with string keys, lists, strings, ints, booleans
    and None; any other value is an InternalError."""
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_LITERALS = {True: "true", False: "false", None: "null"}


def _write(x, newline: str, out: list) -> None:
    kind = type(x)
    if kind is str:
        out.append(_quote(x))
    elif kind is dict:
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in x.items():
            if type(key) is not str:
                raise InternalError(f"cannot write a {type(key).__name__} key as JSON")
            out.append(sep + _quote(key) + ": ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in x:
            out.append(sep)
            _write(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is int:
        out.append(str(x))
    elif kind is bool or x is None:
        out.append(_LITERALS[x])
    else:
        raise InternalError(f"cannot write a {kind.__name__} as JSON")
