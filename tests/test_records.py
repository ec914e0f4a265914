"""The package's records: immutable values with field-wise ==, hash and repr.

Every record compares, hashes and prints the fields listed in FIELDS, less
the ones in UNCOMPARED or UNSHOWN: == holds between records of the same
class with equal compared fields, hash is the hash of the tuple of those
fields (a TypeError when one of them is a dict), and repr is
`Name(field=value, ...)` over the shown fields.
"""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from noksurf import (
    CurveRecord,
    DivisorClass,
    FlagSpec,
    PiecewiseLinear,
    RayProfile,
    Segment,
    SurfaceModel,
    ZariskiResult,
    alpha_beta,
    build_polygon,
    predict_interior_vertices,
    rightmost_count,
    side_lengths,
    vertex_bound_check,
    walk_ray,
)
from noksurf.flagbuilder import realize_vertex_count
from noksurf.record import Record
from noksurf.toric import ToricDivisor, ToricFan, crosscheck

from helpers import rebuilt

SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    "CurveRecord": ("label", "cls"),
    "DivisorClass": ("coords",),
    "SurfaceModel": ("rank", "gram", "curves", "ample_witness"),
    "Segment": ("t_lo", "t_hi", "support", "coeffs", "numerators"),
    "RayProfile": (
        "nu", "mu", "radicand", "segments", "appearance", "flag", "divisor", "candidates",
        "decomposition", "flag_square", "volume", "scaled_flag_pairings",
    ),
    "FlagSpec": ("label", "cls", "local_mult"),
    "ZariskiResult": ("support", "coeffs", "positive_part", "scaled_pairings"),
    "PiecewiseLinear": ("breakpoints", "values", "_slopes"),
    "OkPolygon": ("vertices", "tags"),
    "InteriorPrediction": ("t", "entering", "expect_lower", "expect_upper"),
    "RightmostReport": ("count", "certified", "observed", "flag_in_span"),
    "Side": ("start", "end", "dt", "ds"),
    "BoundReport": (
        "vertex_count", "mv_bound", "picard_bound", "interior_lower", "interior_lower_bound",
        "interior_upper", "interior_upper_bound",
    ),
    "ToricFan": ("rays",),
    "ToricDivisor": ("coeffs",),
    "CrosscheckReport": ("equal", "walk_vertices", "monomial_vertices", "area2", "divisor_square"),
    "OrderedFlagCertificate": ("flag_class", "coefficients", "appearance", "mu", "independent"),
    "RealizedFlag": ("target", "config", "placement", "certificate", "scale", "profile", "polygon"),
}
UNCOMPARED = {
    "Segment": {"numerators"},
    "RayProfile": {"scaled_flag_pairings"},
    "ZariskiResult": {"coeffs", "positive_part", "scaled_pairings"},
    "PiecewiseLinear": {"_slopes"},
}
UNSHOWN = {
    "Segment": {"numerators"},
    "RayProfile": {"scaled_flag_pairings"},
    "ZariskiResult": {"scaled_pairings"},
    "PiecewiseLinear": {"_slopes"},
}

BL1 = SurfaceModel(
    2,
    [[1, 0], [0, -1]],
    [CurveRecord("E", (0, 1)), CurveRecord("C", (2, -1))],
    (2, -1),
)
D1 = DivisorClass((3, -1))


@pytest.fixture(scope="module")
def records():
    """One record of every class, from real runs, by class name."""
    prof = walk_ray(BL1, D1, FlagSpec(BL1, "C", {"E": 1}), ["E"])
    alpha, _ = alpha_beta(BL1, prof)
    poly = build_polygon(*alpha_beta(BL1, prof))
    p2 = ToricFan([(1, 0), (0, 1), (-1, -1)])
    realized = realize_vertex_count(
        SurfaceModel(2, [[1, 0], [0, -1]], [CurveRecord("E", (0, 1))], (2, -1)), D1, ["E"], 4
    )
    found = [
        BL1.curves[0], D1, BL1, prof.segments[1], prof, prof.flag, prof.decomposition, alpha,
        poly, predict_interior_vertices(BL1, prof)[0], rightmost_count(BL1, prof),
        side_lengths(poly)[0], vertex_bound_check(BL1, poly, prof), p2, ToricDivisor((0, 0, 1)),
        crosscheck(p2, ToricDivisor((0, 0, 1)), 1), realized.certificate, realized,
    ]
    out = {type(r).__name__: r for r in found}
    assert set(out) == set(FIELDS)
    return out


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_record_refuses_assignment(records, name):
    rec = records[name]
    for field in FIELDS[name]:
        value = getattr(rec, field)
        with pytest.raises(AttributeError):
            setattr(rec, field, value)
        with pytest.raises(AttributeError):
            delattr(rec, field)
        assert getattr(rec, field) is value
    with pytest.raises(AttributeError):
        rec.other = 1


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_record_compares_hashes_and_prints_its_fields(records, name):
    rec = records[name]
    compared = tuple(getattr(rec, f) for f in FIELDS[name] if f not in UNCOMPARED.get(name, ()))
    assert rec == rec
    assert rec.__eq__(compared) is NotImplemented
    assert rec != compared
    try:
        want = hash(compared)
    except TypeError:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == want
    shown = ", ".join(
        f"{f}={getattr(rec, f)!r}" for f in FIELDS[name] if f not in UNSHOWN.get(name, ())
    )
    assert repr(rec) == f"{name}({shown})"


# the records whose constructor only stores their fields, in slot order
FIELD_ONLY = [
    "CurveRecord", "Segment", "RayProfile", "ZariskiResult", "Side", "OkPolygon",
    "InteriorPrediction", "RightmostReport", "BoundReport", "CrosscheckReport",
    "OrderedFlagCertificate", "RealizedFlag",
]


@pytest.mark.parametrize("name", FIELD_ONLY)
def test_field_only_constructors_take_each_field_once(records, name):
    rec = records[name]
    cls, names = type(rec), FIELDS[name]
    values = [getattr(rec, f) for f in names]
    fields = dict(zip(names, values))
    assert cls(*values) == rec
    assert cls(**fields) == rec
    for i in range(len(names) + 1):
        built = cls(*values[:i], **dict(zip(names[i:], values[i:])))
        assert built == rec
        assert all(getattr(built, f) is v for f, v in fields.items())
    for args, kwargs in [
        (values[:-1], {}),  # a missing field
        ((), {**fields, "other": 1}),  # an unknown keyword
        (values[:1], fields),  # the first field both ways
        ([*values, None], {}),  # one positional value too many
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_field_only_records_share_one_constructor_and_one_of(records):
    for name in FIELD_ONLY:
        assert "__init__" not in vars(type(records[name])), name
    for cls in (DivisorClass, PiecewiseLinear):
        assert cls._of.__func__ is Record._of.__func__
    dc = DivisorClass._of((Fraction(1, 2),))
    assert dc.coords == (Fraction(1, 2),) and not hasattr(dc, "_ints")
    assert dc._scaled() == ((1,), 2) and dc._ints == ((1,), 2)


def test_reprs_are_pinned(records):
    assert repr(records["Segment"]) == (
        "Segment(t_lo=Fraction(1, 1), t_hi=Fraction(3, 2), support=('E',), "
        "coeffs={'E': (Fraction(-1, 1), Fraction(1, 1))})"
    )
    assert repr(records["ZariskiResult"]) == (
        "ZariskiResult(support=(), coeffs={}, "
        "positive_part=DivisorClass(coords=(Fraction(3, 1), Fraction(-1, 1))))"
    )
    assert repr(records["FlagSpec"]) == (
        "FlagSpec(label='C', cls=DivisorClass(coords=(Fraction(2, 1), Fraction(-1, 1))), "
        "local_mult={'E': 1})"
    )
    assert repr(records["PiecewiseLinear"]) == (
        "PiecewiseLinear(breakpoints=(Fraction(0, 1), Fraction(1, 1), Fraction(3, 2)), "
        "values=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 2)))"
    )
    assert repr(BL1.curves[1]) == "CurveRecord(label='C', cls=(2, -1))"


def test_divisor_class_is_a_value():
    a = DivisorClass((1, Fraction(2, 4)))
    b = DivisorClass(["1", "1/2"])
    c = DivisorClass._of((Fraction(1), Fraction(1, 2)))
    assert a == b == c
    assert hash(a) == hash(b) == hash(c) == hash(((Fraction(1), Fraction(1, 2)),))
    a._scaled()  # the cached integer form is no field
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != DivisorClass((1, 1)) and a != DivisorClass((1, Fraction(1, 2), 0))
    assert a != (1, Fraction(1, 2))
    assert len({a, b, c, DivisorClass((0, 1))}) == 2
    assert {a: "D"}[b] == "D"
    assert a + b == 2 * a == DivisorClass((2, 1))


def test_uncompared_fields_are_ignored(records):
    seg = records["Segment"]
    assert Segment(seg.t_lo, seg.t_hi, seg.support, seg.coeffs, numerators=None) == seg
    assert Segment(seg.t_lo, seg.t_hi, ("E", "C"), seg.coeffs, seg.numerators) != seg
    assert Segment(seg.t_lo, 2, seg.support, seg.coeffs, seg.numerators) != seg

    prof = records["RayProfile"]
    assert rebuilt(prof, scaled_flag_pairings=(1, {})) == prof
    assert rebuilt(prof, volume=prof.volume + 1) != prof

    dec = records["ZariskiResult"]
    other = ZariskiResult(dec.support, {"X": Fraction(1)}, DivisorClass((0, 0)), (1, {}))
    assert other == dec and hash(other) == hash(dec)
    assert ZariskiResult(("E",), dec.coeffs, dec.positive_part, dec.scaled_pairings) != dec

    alpha = records["PiecewiseLinear"]
    same = PiecewiseLinear._of(alpha.breakpoints, alpha.values, ("not", "slopes"))
    assert same == alpha and hash(same) == hash(alpha)
    assert PiecewiseLinear(alpha.breakpoints, alpha.values) == alpha
    assert PiecewiseLinear((0, 1), (0, 1)) != PiecewiseLinear((0, 1), (0, 2))


def test_importing_the_cli_loads_no_dataclass_machinery():
    # a fresh interpreter: the modules `import noksurf.cli` adds, by name
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import noksurf.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert "noksurf.cli" in out and "noksurf.raywalk" in out
    assert "dataclasses" not in out
    assert "inspect" not in out
