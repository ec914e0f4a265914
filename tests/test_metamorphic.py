"""Metamorphic tests: the polygon depends on the lattice data, not on how a
document writes it down.

- Basis change.  A unimodular U maps classes c -> U*c and the Gram matrix
  G -> U^-T*G*U^-1, so every pairing is unchanged; the `polygon` output
  must be byte-identical.
- Curve order.  Permuting the curve declarations may reorder ties in the
  walk's listings, but not the polygon: the vertex cycle and twice the area
  stay the same.

Neither test shares an algorithm with the code under test.
"""
import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import case_document, corpus, forest_corpus, gauss_jordan, random_unimodular
from noksurf.cli import main

CASES_DIR = Path(__file__).resolve().parent.parent / "cases"
POLYGON_CASES = ["ex1_on_point", "ex1_off_point", "ex2_negative_flag", "ex3_tight", "p2_cubic"]


def _documents() -> list[tuple[str, dict]]:
    docs = [(n, json.loads((CASES_DIR / f"{n}.json").read_text())) for n in POLYGON_CASES]
    cases = (
        corpus(seed=31337, count=30)
        + forest_corpus(seed=808, count=3, rho=8)
        + forest_corpus(seed=1616, count=2, rho=16)
    )
    return docs + [(case.name, case_document(case)) for case in cases]


DOCUMENTS = _documents()


def _polygon_stdout(tmp_path, capsys, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["polygon", str(path)]) == 0, capsys.readouterr().err
    return capsys.readouterr().out


def _apply(u, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in u]


def _change_basis(doc, u) -> dict:
    """The document in the basis U: classes U*c, Gram U^-T*G*U^-1."""
    n = len(u)
    _, inv_columns = gauss_jordan(u, [[int(i == j) for i in range(n)] for j in range(n)])
    inv = [[int(inv_columns[j][i]) for j in range(n)] for i in range(n)]
    g = doc["surface"]["matrix"]
    out = copy.deepcopy(doc)
    surface = out["surface"]
    surface["matrix"] = [
        [sum(inv[k][i] * g[k][l] * inv[l][j] for k in range(n) for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    for curve in surface["curves"]:
        curve["class"] = _apply(u, curve["class"])

    def rational(v):
        return [str(x) for x in _apply(u, [Fraction(x) for x in v])]

    surface["ample_witness"] = rational(surface["ample_witness"])
    out["divisor"] = rational(out["divisor"])
    if isinstance(out["flag"]["curve"], list):
        out["flag"]["curve"] = rational(out["flag"]["curve"])
    return out


@pytest.mark.parametrize("name,doc", DOCUMENTS, ids=[n for n, _ in DOCUMENTS])
def test_polygon_is_invariant_under_a_change_of_basis(name, doc, tmp_path, capsys):
    rng = random.Random(name)
    want = _polygon_stdout(tmp_path, capsys, doc)
    for _ in range(2):
        u = random_unimodular(rng, doc["surface"]["rank"])
        assert _polygon_stdout(tmp_path, capsys, _change_basis(doc, u)) == want, u


@pytest.mark.parametrize("name,doc", DOCUMENTS, ids=[n for n, _ in DOCUMENTS])
def test_polygon_is_invariant_under_curve_order(name, doc, tmp_path, capsys):
    rng = random.Random(name)

    def polygon(d):
        out = json.loads(_polygon_stdout(tmp_path, capsys, d))
        return [(v["t"], v["s"]) for v in out["vertices"]], out["area2"]

    want = polygon(doc)
    for _ in range(2):
        permuted = copy.deepcopy(doc)
        rng.shuffle(permuted["surface"]["curves"])
        assert polygon(permuted) == want
