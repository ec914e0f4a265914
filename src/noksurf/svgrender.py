"""SVG 1.1 rendering of polygons: lattice grid, path, labeled vertex markers.

Display is the one place floating point is allowed: exact coordinates are
printed at 12 significant digits and never read back.
"""
from __future__ import annotations

import math

from .errors import InputError
from .polygon import OkPolygon
from .qext import format_exact


def _f(x: float) -> str:
    return f"{x:.12g}"


def render_svg(
    polygon: OkPolygon,
    output_path: str | None,
    width: int = 480,
    grid: bool = True,
) -> str:
    """Write the polygon as an SVG document; returns the markup.

    Vertex markers carry their classification tag (and exact coordinates) in
    a tooltip title.  Grid lines sit on the integer lattice.
    """
    if not polygon.vertices:
        raise InputError("cannot render an empty polygon")
    if width < 1:
        raise InputError(f"width must be at least 1 pixel, got {width}")
    try:
        float(width)
    except OverflowError:
        raise InputError("width must fit a float") from None
    try:
        pts = [(float(t), float(s)) for t, s in polygon.vertices]
    except OverflowError:  # fails the finiteness check below
        pts = [(math.inf, math.inf)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span_x = xmax - xmin or 1.0
    span_y = ymax - ymin or 1.0
    pad_x, pad_y = 0.08 * span_x, 0.08 * span_y
    xmin, xmax = xmin - pad_x, xmax + pad_x
    ymin, ymax = ymin - pad_y, ymax + pad_y
    # axes scale independently onto a fixed 4:3 canvas; lattice aspect is
    # not preserved, which keeps thin tall polygons readable
    height = max(int(round(width * 0.75)), 40)
    ext_x, ext_y = xmax - xmin, ymax - ymin
    # a finite, nonzero extent keeps every pixel finite: each offset is
    # divided by the extent before it is scaled, so a tiny extent cannot
    # overflow; far from the origin the padding can round away to 0
    if not (0 < ext_x < math.inf and 0 < ext_y < math.inf):
        raise InputError("cannot draw a polygon whose coordinates do not fit a float")

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (x - xmin) / ext_x * width, (ymax - y) / ext_y * height

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    if grid:
        # lattice lines, thinned to integer multiples when the span is large
        step_x = max(1, math.ceil(ext_x / 32))
        step_y = max(1, math.ceil(ext_y / 32))
        gx = math.ceil(xmin / step_x) * step_x
        while gx <= math.floor(xmax):
            px, _ = to_px(gx, 0)
            major = gx == 0
            lines.append(
                f'<line x1="{_f(px)}" y1="0" x2="{_f(px)}" y2="{height}" '
                f'stroke="{"#888" if major else "#ddd"}" stroke-width="{1.2 if major else 0.6}"/>'
            )
            gx += step_x
        gy = math.ceil(ymin / step_y) * step_y
        while gy <= math.floor(ymax):
            _, py = to_px(0, gy)
            major = gy == 0
            lines.append(
                f'<line x1="0" y1="{_f(py)}" x2="{width}" y2="{_f(py)}" '
                f'stroke="{"#888" if major else "#ddd"}" stroke-width="{1.2 if major else 0.6}"/>'
            )
            gy += step_y

    path = " ".join(
        ("M" if i == 0 else "L") + f" {_f(px)} {_f(py)}"
        for i, (px, py) in enumerate(to_px(*p) for p in pts)
    )
    lines.append(
        f'<path d="{path} Z" fill="#4a90d9" fill-opacity="0.25" '
        'stroke="#1f5fa8" stroke-width="1.5"/>'
    )

    for (t, s), tag, (px, py) in zip(
        polygon.vertices, polygon.tags, (to_px(*p) for p in pts)
    ):
        title = f"{tag} ({format_exact(t)}, {format_exact(s)})"
        lines.append(
            f'<circle cx="{_f(px)}" cy="{_f(py)}" r="3.5" fill="#c0392b">'
            f"<title>{title}</title></circle>"
        )
    lines.append("</svg>")
    markup = "\n".join(lines) + "\n"
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(markup)
    return markup
