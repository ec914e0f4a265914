import xml.etree.ElementTree as ET

from noksurf import (
    CurveRecord,
    DivisorClass,
    FlagSpec,
    SurfaceModel,
    alpha_beta,
    build_polygon,
    walk_ray,
)
from noksurf.svgrender import render_svg

NS = {"svg": "http://www.w3.org/2000/svg"}

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
