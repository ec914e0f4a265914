"""Document fuzzer: one field of a case document set to a hostile value.

The documents are the cases, each with every command it has an expected
output for, and one rank-16 forest model as a `polygon` document, so the
checks are also exercised at a rank the benchmark runs.  The rank-16
document has a test of its own, so that it gets a fixed number of examples.

Every command must end in a documented exit code (0, 2 or 3) within a time
cap and never print a traceback.  Each document runs in its own
interpreter, so a crash, a hang or a leak cannot hide behind the previous
one.
"""
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.dom import minidom

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import noksurf
from helpers import case_document, forest_case

CASES_DIR = Path(__file__).resolve().parent.parent / "cases"
SRC = str(Path(noksurf.__file__).resolve().parent.parent)

# (command, document text) for every expected output
CASES = [
    (command, (CASES_DIR / f"{stem}.json").read_text())
    for stem, command in sorted(
        tuple(p.name.split(".")[:2]) for p in (CASES_DIR / "expected").glob("*.json")
    )
]
RANK16 = [("polygon", json.dumps(case_document(forest_case(random.Random(16), 16))))]

DEEP = "deep nesting"  # replaced by 10**5 nested lists when the document is written
BAD_VALUES = [True, False, 1.5, "1e3", "", [], {}, None, 10**30, -(10**30), 0, -1, "1/0", DEEP]


def _paths(node, prefix=()):
    """Every field path of a JSON document: object keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw, pool):
    command, original = draw(st.sampled_from(pool))
    doc = json.loads(original)
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(st.sampled_from(BAD_VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    text = json.dumps(doc).replace(json.dumps(DEEP), "[" * 10**5 + "]" * 10**5)
    return command, path, value, text


def fuzz_settings(examples):
    return settings(
        max_examples=examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )


@given(mutated_documents(CASES))
@fuzz_settings(40)
def test_mutated_document_exits_cleanly(tmp_path, mutation):
    _exits_cleanly(tmp_path, mutation)


@given(mutated_documents(RANK16))
@fuzz_settings(10)
def test_mutated_rank16_document_exits_cleanly(tmp_path, mutation):
    _exits_cleanly(tmp_path, mutation)


@st.composite
def scaled_svg_documents(draw):
    """A case with a polygon, its divisor scaled by m * 10**e: tiny, about
    1, or about the largest float, where a coordinate or the padded extent
    overflows."""
    stem = draw(st.sampled_from(["p2_cubic", "ex1_on_point", "ex3_tight"]))
    e = draw(st.one_of(st.integers(-330, -300), st.integers(-3, 3), st.integers(300, 312)))
    scale = Fraction(draw(st.integers(1, 99))) * Fraction(10) ** e
    doc = json.loads((CASES_DIR / f"{stem}.json").read_text())
    doc["divisor"] = [str(scale * Fraction(x)) for x in doc["divisor"]]
    return json.dumps(doc), draw(st.sampled_from([[], ["--no-grid"]]))


@given(scaled_svg_documents())
@fuzz_settings(12)
def test_render_svg_of_a_scaled_polygon_exits_cleanly(tmp_path, scaled):
    text, flags = scaled
    doc, svg = tmp_path / "scaled.json", tmp_path / "scaled.svg"
    doc.write_text(text)
    svg.unlink(missing_ok=True)
    res = subprocess.run(
        [sys.executable, "-m", "noksurf.cli", "render-svg", str(doc), "--svg", str(svg), *flags],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert res.returncode in (0, 2), (text, res.stderr[-2000:])
    assert "Traceback" not in res.stderr, (text, res.stderr[-2000:])
    if res.returncode:
        assert res.stdout == "" and not svg.exists()
    else:
        markup = svg.read_text()
        assert "inf" not in markup and "nan" not in markup, text
        minidom.parseString(markup)


def _exits_cleanly(tmp_path, mutation):
    command, path, value, text = mutation
    doc = tmp_path / "mutated.json"
    doc.write_text(text)
    res = subprocess.run(
        [sys.executable, "-m", "noksurf.cli", command, str(doc)],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    where = (command, path, value)
    assert res.returncode in (0, 2, 3), (where, res.stderr[-2000:])
    assert "Traceback" not in res.stderr, (where, res.stderr[-2000:])
