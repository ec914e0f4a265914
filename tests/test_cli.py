import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noksurf
from noksurf import cli, docio, qext, zariski_decompose
from noksurf.cli import build_parser, main
from noksurf.errors import FactorBudgetExhausted, InternalError
from noksurf.docio import parse_surface

from helpers import case_document, forest_case, rebuilt

CASES_DIR = Path(__file__).resolve().parent.parent / "cases"

ROUND_TRIPS = [
    ("polygon", "ex1_on_point"),
    ("ray-profile", "ex1_on_point"),
    ("polygon", "ex1_off_point"),
    ("polygon", "ex2_negative_flag"),
    ("polygon", "ex3_tight"),
    ("polygon", "p2_cubic"),
    ("check-lattice", "check_lattice_chain"),
    ("zariski", "zariski_a2"),
    ("invariants", "invariants_chain"),
    ("scan-vertex-counts", "scan_chain3"),
    ("flag-search", "flag_search_chain"),
    ("toric-crosscheck", "toric_p2_crosscheck"),
    ("toric-crosscheck", "toric_f1_crosscheck"),
    ("toric-polygon", "toric_f1_polygon"),
]


@pytest.mark.parametrize("command,name", ROUND_TRIPS)
def test_round_trip_byte_exact(command, name, capsys):
    doc = CASES_DIR / f"{name}.json"
    expected = (CASES_DIR / "expected" / f"{name}.{command}.json").read_text()
    assert main([command, str(doc)]) == 0
    assert capsys.readouterr().out == expected


def test_ex1_vertices_content(capsys):
    assert main(["polygon", str(CASES_DIR / "ex1_on_point.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(v["t"], v["s"]) for v in payload["vertices"]] == [
        ("0", "0"),
        ("1", "0"),
        ("3/2", "1/2"),
        ("0", "5"),
    ]
    assert payload["area"] == "4"
    assert payload["bounds"]["ok"] is True


def test_text_format(capsys):
    assert main(["check-lattice", str(CASES_DIR / "check_lattice_chain.json"), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "(1,2,0) OK"


def test_missing_file_exit_2(capsys):
    assert main(["polygon", "/nonexistent/nope.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 1,,}')
    assert main(["polygon", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_integer_over_digit_limit_exit_2(tmp_path, capsys):
    doc = tmp_path / "bigint.json"
    doc.write_text('{"schema": 1, "rank": ' + "9" * 5000 + "}")
    assert main(["check-lattice", str(doc)]) == 2
    assert "cannot load document" in capsys.readouterr().err


def test_deeply_nested_document_exit_2(tmp_path, capsys):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["check-lattice", str(doc)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1e-99999999", " 3.5 "])
def test_rational_outside_the_grammar_exit_2_quickly(text, tmp_path):
    # Fraction() alone would accept " 3.5 " and spend minutes on 10**99999999;
    # a child process lets the time cap stop a hang
    doc = json.loads((CASES_DIR / "zariski_a2.json").read_text())
    doc["divisor"][0] = text
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(doc))
    src = str(Path(noksurf.__file__).resolve().parent.parent)
    res = subprocess.run(
        [sys.executable, "-m", "noksurf.cli", "zariski", str(path)],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 2
    assert f"divisor[0]: cannot parse rational {text!r}" in res.stderr


def test_flag_search_spends_one_factoring_budget(tmp_path):
    # every walk of the search meets the same radicand, and only the
    # search's final mu is factored; that exhausted budget ends the command
    doc = json.loads((CASES_DIR / "scan_chain3.json").read_text())
    doc["surface"]["curves"][0]["class"][1] = 10**30
    path = tmp_path / "bigclass.json"
    path.write_text(json.dumps(doc))
    src = str(Path(noksurf.__file__).resolve().parent.parent)
    res = subprocess.run(
        [sys.executable, "-m", "noksurf.cli", "scan-vertex-counts", str(path)],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 2
    assert res.stderr.startswith("error: cannot factor ")


@pytest.mark.parametrize(
    "command,name", [("flag-search", "flag_search_chain"), ("scan-vertex-counts", "scan_chain3")]
)
def test_exhausted_factoring_budget_ends_the_search_with_exit_2(command, name, monkeypatch, capsys):
    # the replays take no square-free part; the search's one mu, for its
    # certificate, or the realization walk meets the budget and ends the
    # command
    calls = []

    def exhausted(n):
        calls.append(n)
        raise FactorBudgetExhausted(f"cannot factor {n} to make it square-free within 0 steps")

    monkeypatch.setattr(qext, "squarefree_part", exhausted)
    assert main([command, str(CASES_DIR / f"{name}.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot factor {calls[0]} to make it square-free within 0 steps\n"
    assert len(calls) == 1


def test_schema_field_required(tmp_path, capsys):
    doc = tmp_path / "noschema.json"
    doc.write_text("{}")
    assert main(["check-lattice", str(doc)]) == 2
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("schema,code", [(True, 2), (1.0, 2), ("1", 2), (1, 0)])
def test_schema_must_be_the_integer_1(schema, code, tmp_path, capsys):
    # True == 1 == 1.0 in Python; only the integer passes
    doc = json.loads((CASES_DIR / "ex1_on_point.json").read_text())
    doc["schema"] = schema
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    assert main(["polygon", str(path)]) == code
    if code:
        err = capsys.readouterr().err
        assert f"field 'schema' must be 1, got {schema!r}" in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**40), 10**40) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=25,
)


@given(json_values)
@settings(max_examples=300)
def test_dump_json_matches_the_stdlib(value):
    # non-ASCII, quotes, backslashes and control characters come from st.text
    assert docio.dump_json(value) == json.dumps(value, indent=2) + "\n"


def test_dump_json_edge_cases():
    value = {
        "": [], "e\u00e9\"\\\n\x00\x1f": {}, "\U0001f600": [[], {}, [{}]],
        "big": [-(10**30), 0, True, False, None], "s": "tab\there \u2028",
    }
    assert docio.dump_json(value) == json.dumps(value, indent=2) + "\n"
    assert docio.dump_json([]) == "[]\n"


@pytest.mark.parametrize("value", [{"x": 0.5}, [Fraction(1, 2)], {1: "a"}, ("a",)])
def test_dump_json_rejects_other_types(value):
    with pytest.raises(InternalError):
        docio.dump_json(value)


def test_unwritable_payload_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setitem(cli._COMMANDS, "check-lattice", lambda doc, args: ({"x": 0.5}, None))
    assert main(["check-lattice", str(CASES_DIR / "check_lattice_chain.json")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "internal error: cannot write a float as JSON\n"


@pytest.mark.parametrize(
    "patched,message",
    [
        ("shoelace", "twice the polygon area 9 disagrees with vol(D) = 8"),
        ("volume", "twice the polygon area 8 disagrees with vol(D) = 9"),
    ],
    ids=["shoelace", "volume"],
)
def test_area_certificate_fires(patched, message, monkeypatch, capsys):
    # polygon prints area2 = vol(D) = 8 for this case; off by one on either
    # side, the shoelace certificate stops it before any output
    shoelace, walk = cli.polygon_area2, cli.walk_ray
    if patched == "shoelace":
        monkeypatch.setattr(cli, "polygon_area2", lambda poly: shoelace(poly) + 1)
    else:

        def walk_off_by_one(*args):
            prof = walk(*args)
            return rebuilt(prof, volume=prof.volume + 1)

        monkeypatch.setattr(cli, "walk_ray", walk_off_by_one)
    assert main(["polygon", str(CASES_DIR / "ex1_on_point.json")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"internal error: {message}\n"


def test_field_diagnostics(tmp_path, capsys):
    doc = tmp_path / "badfield.json"
    doc.write_text(
        json.dumps(
            {
                "schema": 1,
                "surface": {
                    "rank": 2,
                    "matrix": [[1, 0], [0, 0.5]],
                    "curves": [],
                    "ample_witness": [1, 0],
                },
            }
        )
    )
    assert main(["check-lattice", str(doc)]) == 2
    assert "surface.matrix[1][1]" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [True, 0.0, "0", [0]], ids=["bool", "float", "str", "list"])
@pytest.mark.parametrize(
    "field,path",
    [
        ("surface.matrix[1][2]", ("matrix", 1, 2)),
        ("surface.curves[1].class[0]", ("curves", 1, "class", 0)),
    ],
)
def test_integer_entry_diagnostics(entry, field, path, tmp_path, capsys):
    doc = json.loads((CASES_DIR / "check_lattice_chain.json").read_text())
    where = doc["surface"]
    for key in path[:-1]:
        where = where[key]
    where[path[-1]] = entry
    bad = tmp_path / "badentry.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-lattice", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {field}: expected an integer\n")


def _zeroed(cls):
    return [0] * len(cls)


# name -> (edits, message); an edit is (path under "surface", new value or a
# function of the old one).  Each message is what `polygon` printed before
# docio became the only place that checks entry types, and with two faults
# the one found first is still the one reported.
SURFACE_FAULTS = {
    "matrix-bool": ([(("matrix", 3, 5), True)], "surface.matrix[3][5]: expected an integer"),
    "matrix-float": ([(("matrix", 3, 5), 0.0)], "surface.matrix[3][5]: expected an integer"),
    "matrix-str": ([(("matrix", 3, 5), "0")], "surface.matrix[3][5]: expected an integer"),
    "matrix-list": ([(("matrix", 3, 5), [0])], "surface.matrix[3][5]: expected an integer"),
    "class-bool": ([(("curves", 2, "class", 4), True)], "surface.curves[2].class[4]: expected an integer"),
    "class-float": ([(("curves", 2, "class", 4), 0.0)], "surface.curves[2].class[4]: expected an integer"),
    "class-str": ([(("curves", 2, "class", 4), "0")], "surface.curves[2].class[4]: expected an integer"),
    "class-list": ([(("curves", 2, "class", 4), [0])], "surface.curves[2].class[4]: expected an integer"),
    "short-row": ([(("matrix", 5), lambda row: row[:-1])], "intersection matrix must be rank x rank"),
    "class-length": ([(("curves", 3, "class"), lambda cls: cls + [0])], "curve 'N4' has a class of wrong length"),
    "zero-class": ([(("curves", 3, "class"), _zeroed)], "curve 'N4' has zero class"),
    "duplicate-label": ([(("curves", 4, "label"), "N2")], "duplicate curve label 'N2'"),
    "nonsymmetric": ([(("matrix", 1, 2), 1)], "matrix is not symmetric at (2,1)"),
    "inertia": ([(("matrix", 1, 1), 1)], "intersection form has inertia (2, 14, 0), expected (1, 15, 0)"),
    "witness-length": ([(("ample_witness",), lambda w: w + ["1"])], "ample witness has wrong length"),
    "witness-square": (
        [(("ample_witness",), lambda w: ["1"] + ["-1"] * (len(w) - 1))],
        "ample witness has nonpositive self-intersection",
    ),
    "witness-pairing": (
        [(("ample_witness",), lambda w: ["1"] + ["0"] * (len(w) - 1))],
        "ample witness does not pair positively with curve 'N1'",
    ),
    "class-bool+nonsymmetric": (
        [(("curves", 30, "class", 0), False), (("matrix", 1, 2), 1)],
        "surface.curves[30].class[0]: expected an integer",
    ),
    "short-row+class-str": (
        [(("matrix", 0), lambda row: row[:-1]), (("curves", 40, "class", 15), "1")],
        "surface.curves[40].class[15]: expected an integer",
    ),
    "witness-float+zero-class": (
        [(("ample_witness", 15), -1.0), (("curves", 0, "class"), _zeroed)],
        'surface.ample_witness[15]: floats are not exact; write "p/q" instead',
    ),
    "inertia+class-length": (
        [(("matrix", 15, 15), 0), (("curves", 0, "class"), lambda cls: cls[:-1])],
        "intersection form has inertia (1, 14, 1), expected (1, 15, 0)",
    ),
    "zero-class+duplicate-label": (
        [(("curves", 6, "class"), _zeroed), (("curves", 4, "label"), "N1")],
        "duplicate curve label 'N1'",
    ),
    "nonsymmetric+witness-length": (
        [(("matrix", 14, 2), -1), (("ample_witness",), lambda w: w[:-1])],
        "matrix is not symmetric at (14,2)",
    ),
}


@pytest.mark.parametrize("name", SURFACE_FAULTS)
def test_surface_fault_diagnostics_at_rank_16(name, tmp_path, capsys):
    edits, message = SURFACE_FAULTS[name]
    doc = case_document(forest_case(random.Random(16), 16))
    for path, value in edits:
        where = doc["surface"]
        for key in path[:-1]:
            where = where[key]
        where[path[-1]] = value(where[path[-1]]) if callable(value) else value
    bad = tmp_path / "fault.json"
    bad.write_text(json.dumps(doc))
    assert main(["polygon", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "candidates,message",
    [
        ("E", "candidates: must be a list of labels"),
        (["E", 1], "candidates[1]: must be a label"),
        (["X"], "unknown curve label 'X'"),
    ],
)
def test_candidate_diagnostics(candidates, message, tmp_path, capsys):
    doc = json.loads((CASES_DIR / "ex1_on_point.json").read_text())
    doc["candidates"] = candidates
    path = tmp_path / "badcandidates.json"
    path.write_text(json.dumps(doc))
    assert main(["polygon", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("curves", [5, None])
def test_curves_must_be_a_list(curves, tmp_path, capsys):
    doc = tmp_path / "badcurves.json"
    surface = {"rank": 1, "matrix": [[1]], "curves": curves, "ample_witness": [1]}
    doc.write_text(json.dumps({"schema": 1, "surface": surface}))
    assert main(["check-lattice", str(doc)]) == 2
    assert "surface.curves" in capsys.readouterr().err


def test_model_error_exit_2(tmp_path, capsys):
    doc = tmp_path / "nonbig.json"
    doc.write_text(
        json.dumps(
            {
                "schema": 1,
                "surface": {
                    "rank": 2,
                    "matrix": [[1, 0], [0, -1]],
                    "curves": [{"label": "E", "class": [0, 1]}],
                    "ample_witness": [2, -1],
                },
                "divisor": [0, 1],
                "flag": {"curve": "E"},
            }
        )
    )
    assert main(["polygon", str(doc)]) == 2


# D decomposes with support {C1, C2} and nu = 16/7, but D - nu*C1 meets C0
# negatively, and C0.C2 = -2 makes {C0, C2} indefinite: only the second
# decomposition, at nu, finds that
SECOND_DECOMPOSITION_AT_NU = {
    "schema": 1,
    "surface": {
        "rank": 3,
        "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "curves": [
            {"label": "C0", "class": [1, -1, 0]},
            {"label": "C1", "class": [-1, 2, 2]},
            {"label": "C2", "class": [0, -2, 2]},
            {"label": "C3", "class": [1, 1, -2]},
        ],
        "ample_witness": [5, -1, -2],
    },
    "divisor": [2, 0, 7],
    "flag": {"curve": "C1"},
}


@pytest.mark.parametrize("command", ["ray-profile", "polygon"])
def test_second_decomposition_at_nu_exit_2(command, tmp_path, capsys):
    model = parse_surface(SECOND_DECOMPOSITION_AT_NU)
    assert zariski_decompose(model, [2, 0, 7], model.labels()).coefficient("C1") == Fraction(16, 7)
    path = tmp_path / "at_nu.json"
    path.write_text(json.dumps(SECOND_DECOMPOSITION_AT_NU))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: candidate set contains non-negative-definite support: "
        "['C0', 'C2'] has inertia (1, 1, 0)\n"
    )


def test_divisor_in_the_negative_light_cone_exit_2(tmp_path, capsys):
    # D = -(3H - E) has P_nu^2 = 9 > 0, but D.A = -5 for the ample witness A
    doc = json.loads((CASES_DIR / "ex3_tight.json").read_text())
    doc["divisor"], doc["flag"] = [-3, 1], {"curve": [-1, 0]}
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    assert main(["polygon", str(path)]) == 2
    assert "divisor is not big" in capsys.readouterr().err


def test_unfactorable_radicand_exit_2(tmp_path, capsys):
    # P_t^2 = a^2 - (1+t)^2 - c^2 vanishes at 1+t = sqrt(p*q), p and q 30-digit primes
    p, q = 300000000000000000000000000007, 700000000000000000000000000033
    doc = tmp_path / "bigradicand.json"
    doc.write_text(
        json.dumps(
            {
                "schema": 1,
                "surface": {
                    "rank": 3,
                    "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                    "curves": [
                        {"label": "E1", "class": [0, 1, 0]},
                        {"label": "E2", "class": [0, 0, 1]},
                    ],
                    "ample_witness": [3, -1, -1],
                },
                "divisor": [(p + q) // 2, -1, -(q - p) // 2],
                "flag": {"curve": "E1"},
            }
        )
    )
    assert main(["ray-profile", str(doc)]) == 2
    assert f"cannot factor {p * q}" in capsys.readouterr().err


def test_oracle_mismatch_exit_3(tmp_path, capsys, monkeypatch):
    import noksurf.cli as cli_mod
    from noksurf.errors import OracleMismatch

    def boom(doc, args):
        raise OracleMismatch("forced")

    monkeypatch.setitem(cli_mod._COMMANDS, "toric-crosscheck", boom)
    assert main(["toric-crosscheck", str(CASES_DIR / "toric_p2_crosscheck.json")]) == 3


def test_svg_option_writes_file(tmp_path, capsys):
    out = tmp_path / "poly.svg"
    rc = main(
        ["polygon", str(CASES_DIR / "ex1_on_point.json"), "--svg", str(out)]
    )
    assert rc == 0
    assert out.exists()
    payload = json.loads(capsys.readouterr().out)
    assert payload["svg"] == str(out)


def test_render_svg_command(tmp_path, capsys):
    out = tmp_path / "render.svg"
    rc = main(
        [
            "render-svg",
            str(CASES_DIR / "ex3_tight.json"),
            "--svg",
            str(out),
            "--width",
            "300",
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert text.count("<circle") == 5
    assert 'width="300"' in text


def test_non_polygon_command_rejects_svg(capsys):
    rc = main(
        ["invariants", str(CASES_DIR / "invariants_chain.json"), "--svg", "x.svg"]
    )
    assert rc == 2


def test_scan_results_verified(capsys):
    assert main(["scan-vertex-counts", str(CASES_DIR / "scan_chain3.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = payload["realizations"]
    assert [r["v"] for r in rows] == [3, 4, 5, 6, 7]
    assert all(r["verified"] for r in rows)
    assert all(r["vertex_count"] == r["v"] for r in rows)


def test_scan_single_target_v(tmp_path, capsys):
    doc = json.loads((CASES_DIR / "scan_chain3.json").read_text())
    doc["target_v"] = 6
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    assert main(["scan-vertex-counts", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["v"] for r in payload["realizations"]] == [6]
    assert payload["realizations"][0]["verified"]


def test_scan_verified_fails_when_certificate_disagrees(tmp_path, capsys, monkeypatch):
    import noksurf.flagbuilder as flagbuilder

    search = flagbuilder.find_ordered_ample_class

    def off_by_one(*args, **kwargs):
        cert = search(*args, **kwargs)
        (label, t), *rest = cert.appearance
        return rebuilt(cert, appearance=((label, t + 1), *rest))

    monkeypatch.setattr(flagbuilder, "find_ordered_ample_class", off_by_one)
    doc = json.loads((CASES_DIR / "scan_chain3.json").read_text())
    doc["target_v"] = 6
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    assert main(["scan-vertex-counts", str(path)]) == 0
    (row,) = json.loads(capsys.readouterr().out)["realizations"]
    assert row["config"] and row["verified"] is False


def _count_calls(monkeypatch, module, name):
    """Wrap every binding of noksurf.<module>.<name> in the loaded noksurf
    modules; the returned list grows by one per call."""
    fn = getattr(sys.modules[f"noksurf.{module}"], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("noksurf."):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_polygon_resolves_flag_and_decomposes_d_once(monkeypatch, capsys):
    # the flag is resolved once, when the document's FlagSpec is built; the
    # walk and the certificates take it as it is.  D is decomposed only by
    # the walk, once: at nu > 0 (ex2_negative_flag) it starts from that
    # decomposition too
    resolves = _count_calls(monkeypatch, "raywalk", "resolve_flag")
    decompositions = _count_calls(monkeypatch, "zariski", "zariski_decompose")
    for name in ["ex1_on_point", "ex2_negative_flag", "ex3_tight"]:
        resolves.clear()
        decompositions.clear()
        assert main(["polygon", str(CASES_DIR / f"{name}.json")]) == 0
        assert len(resolves) == 1, name
        assert len(decompositions) == 1, name


def test_polygon_validates_the_flag_once(monkeypatch, capsys):
    # the constructor is the one check of a flag, and a polygon command
    # builds one FlagSpec, from the document
    init, calls = noksurf.FlagSpec.__init__, []

    def counted(self, *args):
        calls.append(None)
        init(self, *args)

    monkeypatch.setattr(noksurf.FlagSpec, "__init__", counted)
    for name in ["ex1_on_point", "ex2_negative_flag", "ex3_tight"]:
        calls.clear()
        assert main(["polygon", str(CASES_DIR / f"{name}.json")]) == 0
        assert len(calls) == 1, name


def test_scan_walks_no_realization_twice(monkeypatch, capsys):
    # one walk per trial the probes accept and one per realization; no
    # replay of the search's last trial or of the realization.  Every walk,
    # a replay's or walk_ray's, runs the chamber steps once
    walks = _count_calls(monkeypatch, "raywalk", "_chamber_steps")
    assert main(["scan-vertex-counts", str(CASES_DIR / "scan_chain3.json")]) == 0
    assert len(walks) <= 13


# (ample checks, walks, decompositions) when every probe sample ran a full
# decomposition: flag-search 4, 2, 7 and scan-vertex-counts 13, 13, 20.  The
# halving trials are decided from their base's pairings since, so only the
# entry checks and the independent perturbations call is_model_ample
@pytest.mark.parametrize(
    "command,name,ample_checks,walks,decompositions",
    [
        ("flag-search", "flag_search_chain", 1, 2, 7),
        ("scan-vertex-counts", "scan_chain3", 8, 13, 20),
    ],
)
def test_probe_certificates_replace_decompositions(
    command, name, ample_checks, walks, decompositions, monkeypatch, capsys
):
    # the certified probes keep every trial and every walk, and decompose
    # nothing: only the walks decompose.  Walks are counted by their chamber
    # steps, which a replay runs without walk_ray
    checks = _count_calls(monkeypatch, "lattice", "is_model_ample")
    walked = _count_calls(monkeypatch, "raywalk", "_chamber_steps")
    decomposed = _count_calls(monkeypatch, "zariski", "zariski_decompose")
    assert main([command, str(CASES_DIR / f"{name}.json")]) == 0
    assert (len(checks), len(walked)) == (ample_checks, walks)
    assert len(decomposed) < decompositions


@pytest.mark.parametrize(
    "command,name,searches,realizations",
    [("flag-search", "flag_search_chain", 1, 0), ("scan-vertex-counts", "scan_chain3", 5, 5)],
)
def test_a_flag_search_takes_mu_once(
    command, name, searches, realizations, monkeypatch, capsys
):
    # a replay hands back its exit, and the search takes mu once, for
    # its certificate; each realization walk takes its own.  Every mu here
    # is a root of a quadratic, so each factors one radicand
    roots = _count_calls(monkeypatch, "raywalk", "_mu")
    radicands = _count_calls(monkeypatch, "intmath", "squarefree_part")
    assert main([command, str(CASES_DIR / f"{name}.json")]) == 0
    assert len(roots) == len(radicands) == searches + realizations


@pytest.mark.parametrize("index", [0, -1, 4])
def test_toric_crosscheck_rejects_a_bad_flag_index_before_walking(
    index, tmp_path, monkeypatch, capsys
):
    # P2 has 3 rays; the monomial route's range check runs before the walk
    doc = json.loads((CASES_DIR / "toric_p2_crosscheck.json").read_text())
    doc["flag_index"] = index
    path = tmp_path / "bad_index.json"
    path.write_text(json.dumps(doc))
    walks = _count_calls(monkeypatch, "raywalk", "walk_ray")
    assert main(["toric-crosscheck", str(path)]) == 2
    assert capsys.readouterr().err == "error: flag index must be in 1..3\n"
    assert walks == []


def test_render_svg_nonpositive_width_exit_2(tmp_path, capsys):
    out = tmp_path / "bad.svg"
    doc = str(CASES_DIR / "ex1_on_point.json")
    assert main(["render-svg", doc, "--svg", str(out), "--width", "-5"]) == 2
    assert "width must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_zero_budget_exit_2(capsys):
    doc = str(CASES_DIR / "flag_search_chain.json")
    assert main(["flag-search", doc, "--budget", "0"]) == 2
    assert "--budget must be at least 1" in capsys.readouterr().err


def test_successive_main_calls_match_fresh_runs(capsys):
    # the parser is built once per process; options of one call (a format,
    # a budget) must not leak into the next, and each call must print and
    # exit exactly as a fresh interpreter does
    runs = [
        ["polygon", "ex1_on_point", "--format", "text"],
        ["polygon", "ex1_on_point"],
        ["flag-search", "flag_search_chain", "--budget", "0"],
        ["flag-search", "flag_search_chain"],
        ["zariski", "zariski_a2", "--format", "text"],
        ["check-lattice", "check_lattice_chain"],
    ]
    src = str(Path(noksurf.__file__).resolve().parent.parent)
    for command, name, *flags in runs:
        argv = [command, str(CASES_DIR / f"{name}.json"), *flags]
        fresh = subprocess.run(
            [sys.executable, "-m", "noksurf.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert main(argv) == fresh.returncode, argv
        assert capsys.readouterr().out == fresh.stdout, argv
    assert build_parser() is build_parser()


# -- the flag block's errors, with their exact messages ------------------------

FLAG_DOC = {
    "schema": 1,
    "surface": {
        "rank": 2,
        "matrix": [[1, 0], [0, -1]],
        "curves": [{"label": "E", "class": [0, 1]}, {"label": "C", "class": [1, -1]}],
        "ample_witness": [2, -1],
    },
    "divisor": [3, -1],
    "flag": {"curve": "C", "local_mult": {"E": 1}},
}

# (id, changes to FLAG_DOC, message); E.C = 1
FLAG_FAULTS = [
    ("flag-not-object", {"flag": 5}, "flag: must be an object"),
    (
        "curve-not-label-or-list",
        {"flag": {"curve": 3}},
        "flag.curve: must be a curve label or a class vector",
    ),
    ("class-wrong-length", {"flag": {"curve": [1]}}, "flag.curve: class must have 2 coordinates"),
    ("zero-class", {"flag": {"curve": [0, 0]}}, "flag class must be nonzero"),
    (
        "local-mult-not-object",
        {"flag": {"curve": "C", "local_mult": [1]}},
        "flag.local_mult: must be an object",
    ),
    ("unknown-flag-label", {"flag": {"curve": "X"}}, "unknown curve label 'X'"),
    (
        "unknown-mult-label",
        {"flag": {"curve": "C", "local_mult": {"X": 1}}},
        "unknown curve label 'X'",
    ),
    (
        "bool-mult",
        {"flag": {"curve": "C", "local_mult": {"E": True}}},
        "flag.local_mult['E']: expected an integer",
    ),
    (
        "negative-mult",
        {"flag": {"curve": "C", "local_mult": {"E": -1}}},
        "local multiplicity of 'E' must be a nonnegative integer",
    ),
    (
        "flag-curve-in-mults",
        {"flag": {"curve": "C", "local_mult": {"C": 1}}},
        "local multiplicities must not include the flag curve",
    ),
    (
        "mult-above-total",
        {"flag": {"curve": "C", "local_mult": {"E": 2}}},
        "local multiplicity of 'E' exceeds its total intersection 1",
    ),
    (
        "bad-mult-and-unknown-candidate",
        {"flag": {"curve": "C", "local_mult": {"E": 2}}, "candidates": ["X"]},
        "local multiplicity of 'E' exceeds its total intersection 1",
    ),
]


@pytest.mark.parametrize("command", ["polygon", "ray-profile", "render-svg"])
@pytest.mark.parametrize(
    "changes,message", [f[1:] for f in FLAG_FAULTS], ids=[f[0] for f in FLAG_FAULTS]
)
def test_flag_block_errors_are_pinned(command, changes, message, tmp_path, capsys):
    path = tmp_path / "flag.json"
    path.write_text(json.dumps({**FLAG_DOC, **changes}))
    svg = tmp_path / "out.svg"
    argv = [command, str(path)] + (["--svg", str(svg)] if command == "render-svg" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not svg.exists()


def test_flag_doc_is_valid(tmp_path, capsys):
    # FLAG_DOC itself runs, so each document above has only its own faults
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(FLAG_DOC))
    for command in ("polygon", "ray-profile"):
        assert main([command, str(path)]) == 0
    assert capsys.readouterr().err == ""


# a repeated configuration label is named as such, not as a configuration
# that fails to be negative definite; flag-search said so already
REPEATED_LABELS = [
    ("invariants", "invariants_chain", {"configs": [["C1", "C1"]]}),
    ("invariants", "invariants_chain", {"configs": [["C1"], ["C2", "C1", "C2"]]}),
    ("scan-vertex-counts", "scan_chain3", {"master_config": ["C1", "C1"], "target_v": 3}),
    ("scan-vertex-counts", "scan_chain3", {"master_config": ["C1", "C1"]}),
    ("scan-vertex-counts", "scan_chain3", {"master_config": ["C1", "C2", "C1"]}),
    ("flag-search", "flag_search_chain", {"flag_search": {"config": ["C1", "C1"]}}),
]


@pytest.mark.parametrize(
    "command,case,changes",
    REPEATED_LABELS,
    ids=[
        "invariants", "invariants-later-config", "scan-target", "scan-full", "scan-full-too-long",
        "flag-search",
    ],
)
def test_repeated_configuration_label_is_pinned(command, case, changes, tmp_path, capsys):
    doc = json.loads((CASES_DIR / f"{case}.json").read_text())
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({**doc, **changes}))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: configuration labels must be distinct\n")
