import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from noksurf import (
    CurveRecord,
    DivisorClass,
    FlagSpec,
    SurfaceModel,
    alpha_beta,
    build_polygon,
    walk_ray,
)
from noksurf.cli import main
from noksurf.svgrender import render_svg

NS = {"svg": "http://www.w3.org/2000/svg"}
P2_CUBIC = json.loads(
    (Path(__file__).resolve().parent.parent / "cases" / "p2_cubic.json").read_text()
)

BL1 = SurfaceModel(
    2,
    [[1, 0], [0, -1]],
    [CurveRecord("E", (0, 1)), CurveRecord("C", (2, -1))],
    (2, -1),
)


def _ex1_polygon():
    prof = walk_ray(BL1, DivisorClass((3, -1)), FlagSpec(BL1, "C", {"E": 1}), ["E"])
    return build_polygon(*alpha_beta(BL1, prof))


def test_render_svg_structure(tmp_path):
    poly = _ex1_polygon()
    out = tmp_path / "ex1.svg"
    markup = render_svg(poly, str(out))
    assert out.exists()
    root = ET.fromstring(markup)
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
    circles = root.findall(".//svg:circle", NS)
    assert len(circles) == 4
    titles = [c.find("svg:title", NS).text for c in circles]
    assert any("rightmost-degenerate" in t for t in titles)
    assert any("(3/2, 1/2)" in t for t in titles)
    # integer grid lines present
    lines = root.findall(".//svg:line", NS)
    assert len(lines) > 4
    paths = root.findall(".//svg:path", NS)
    assert len(paths) == 1 and paths[0].attrib["d"].endswith("Z")


def test_render_svg_no_grid_and_width():
    poly = _ex1_polygon()
    markup = render_svg(poly, None, width=200, grid=False)
    root = ET.fromstring(markup)
    assert root.attrib["width"] == "200"
    assert root.findall(".//svg:line", NS) == []


# the triangle of D = d*H on P^2 has vertices (0, 0), (d, 0) and (0, d)
UNDRAWABLE = [
    ("coordinate-overflows", 10**400, []),  # float() raises
    ("padded-extent-overflows", 17 * 10**307, []),  # the grid would floor inf
    ("padded-extent-overflows-no-grid", 17 * 10**307, ["--no-grid"]),  # drew nan
]


@pytest.mark.parametrize("command", ["render-svg", "polygon"])
@pytest.mark.parametrize("d,flags", [u[1:] for u in UNDRAWABLE], ids=[u[0] for u in UNDRAWABLE])
def test_polygon_beyond_the_float_range_exits_2(tmp_path, capsys, command, d, flags):
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({**P2_CUBIC, "divisor": [d]}))
    svg = tmp_path / "out.svg"
    assert main([command, str(doc), "--svg", str(svg), *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        "error: cannot draw a polygon whose coordinates do not fit a float\n",
    )
    assert not svg.exists()


@pytest.mark.parametrize("flags", [[], ["--no-grid"]])
def test_polygon_at_the_float_range_renders(tmp_path, capsys, flags):
    doc = tmp_path / "large.json"
    doc.write_text(json.dumps({**P2_CUBIC, "divisor": [10**308]}))
    svg = tmp_path / "out.svg"
    assert main(["render-svg", str(doc), "--svg", str(svg), *flags]) == 0
    assert capsys.readouterr().err == ""
    markup = svg.read_text()
    assert "inf" not in markup and "nan" not in markup
    root = ET.fromstring(markup)
    assert len(root.findall(".//svg:circle", NS)) == 3
    assert bool(root.findall(".//svg:line", NS)) == (flags == [])


@pytest.mark.parametrize("command", ["render-svg", "polygon"])
@pytest.mark.parametrize("flags", [[], ["--no-grid"]])
def test_polygon_with_a_tiny_extent_renders(tmp_path, capsys, command, flags):
    # every coordinate of the triangle with d = 1/10^310 is a finite
    # (subnormal) float; width/extent would overflow, so offsets are
    # divided by the extent before they are scaled
    doc = tmp_path / "tiny.json"
    doc.write_text(json.dumps({**P2_CUBIC, "divisor": ["1/1" + "0" * 310]}))
    svg = tmp_path / "out.svg"
    assert main([command, str(doc), "--svg", str(svg), *flags]) == 0
    assert capsys.readouterr().err == ""
    markup = svg.read_text()
    assert "inf" not in markup and "nan" not in markup
    root = ET.fromstring(markup)
    assert len(root.findall(".//svg:circle", NS)) == 3


@pytest.mark.parametrize("command", ["render-svg", "polygon"])
def test_width_beyond_the_float_range_exits_2(tmp_path, capsys, command):
    svg = tmp_path / "out.svg"
    doc = Path(__file__).resolve().parent.parent / "cases" / "ex1_on_point.json"
    argv = [command, str(doc), "--svg", str(svg), "--width", "1" + "0" * 400]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not svg.exists()
