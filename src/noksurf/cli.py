"""Command line interface: `noksurf <command> <input.json> [options]`.

Output is JSON on stdout by default (`--format text` for tables); every
number is printed exactly.  Exit codes: 0 success, 1 when an internal
invariant fails, 2 for input or model errors, 3 when a certified bound or
the toric oracle fails.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import docio
from .errors import (
    InputError,
    InternalError,
    ModelError,
    NoksurfError,
    OracleMismatch,
    SearchFailure,
    TheoremViolation,
)
from .flagbuilder import (
    find_ordered_ample_class,
    realize_vertex_count,
    scan_vertex_counts,
)
from .lattice import pair, pair_curve
from .polygon import (
    alpha_beta,
    build_polygon,
    leftmost_side_check,
    leftmost_vertical_length,
    mc,
    mv,
    polygon_area2,
    predict_interior_vertices,
    rightmost_count,
    side_lengths,
    side_slopes,
    vertex_bound_check,
)
from .raywalk import appearance_times, walk_ray
from .svgrender import render_svg
from .toric import crosscheck, monomial_valuation, newton_polygon
from .zariski import relative_negative_part, zariski_decompose

fmt = docio.fmt


def _profile_payload(profile) -> dict:
    return {
        "nu": fmt(profile.nu),
        "mu": fmt(profile.mu),
        "radicand": profile.radicand,
        "appearance": [
            {"label": l, "t": fmt(t)} for l, t in appearance_times(profile)
        ],
        "segments": [
            {
                "t_lo": fmt(seg.t_lo),
                "t_hi": fmt(seg.t_hi),
                "support": list(seg.support),
                "coeffs": {
                    l: [fmt(a0), fmt(a1)] for l, (a0, a1) in seg.coeffs.items()
                },
            }
            for seg in profile.segments
        ],
    }


def _polygon_payload(model, doc) -> tuple[dict, object]:
    divisor = docio.parse_divisor(doc, model)
    flag = docio.parse_flag(doc, model)
    candidates = docio.parse_candidates(doc, model)
    profile = walk_ray(model, divisor, flag, candidates)
    alpha, beta = alpha_beta(model, profile)
    polygon = build_polygon(alpha, beta)
    slopes = side_slopes(model, profile, alpha, beta)
    predictions = predict_interior_vertices(model, profile)
    right = rightmost_count(model, profile)
    bounds = vertex_bound_check(model, polygon, profile)
    # by the area law twice the area is vol(D); the shoelace certifies it
    area2 = profile.volume
    shoelace = polygon_area2(polygon)
    if shoelace != area2:
        raise InternalError(
            f"twice the polygon area {fmt(shoelace)} disagrees with vol(D) = {fmt(area2)}"
        )
    left_len = leftmost_vertical_length(polygon)
    left_check = leftmost_side_check(model, profile)
    if left_len != left_check:
        raise InternalError(
            f"leftmost side {fmt(left_len)} disagrees with P_0.C = {fmt(left_check)}"
        )
    observed = {}
    for (t, _s), tag in zip(polygon.vertices, polygon.tags):
        if tag.startswith("interior"):
            observed.setdefault(fmt(t), set()).add(tag.split("-")[1])
    return {
        "profile": _profile_payload(profile),
        "vertices": [
            {"t": fmt(t), "s": fmt(s), "tag": tag}
            for (t, s), tag in zip(polygon.vertices, polygon.tags)
        ],
        "area2": fmt(area2),
        "area": fmt(area2 / 2),
        "sides": [
            {
                "from": docio.fmt_point(side.start),
                "to": docio.fmt_point(side.end),
                "dt": fmt(side.dt),
                "ds": fmt(side.ds),
            }
            for side in side_lengths(polygon)
        ],
        "segment_slopes": [
            {"lower": fmt(lo), "upper": fmt(up)} for lo, up in slopes
        ],
        "leftmost_side_length": fmt(left_len),
        "leftmost_side_check": fmt(left_check),
        "predictions": [
            {
                "t": fmt(p.t),
                "entering": list(p.entering),
                "expect_lower": p.expect_lower,
                "expect_upper": p.expect_upper,
                "observed_lower": "lower" in observed.get(fmt(p.t), set()),
                "observed_upper": "upper" in observed.get(fmt(p.t), set()),
            }
            for p in predictions
        ],
        "rightmost": {
            "count": right.count,
            "certified": right.certified,
            "observed": right.observed,
            "flag_in_span": right.flag_in_span,
        },
        "bounds": {
            "vertex_count": bounds.vertex_count,
            "mv": bounds.mv_bound,
            "picard_bound": bounds.picard_bound,
            "interior_lower": bounds.interior_lower,
            "interior_lower_bound": bounds.interior_lower_bound,
            "interior_upper": bounds.interior_upper,
            "interior_upper_bound": bounds.interior_upper_bound,
            "ok": bounds.ok,
        },
    }, polygon


def cmd_check_lattice(doc, args):
    model = docio.parse_surface(doc)
    return {
        "rank": model.rank,
        "inertia": [1, model.rank - 1, 0],  # as SurfaceModel certified it
        "curves": list(model.labels()),
        "ample_witness": [fmt(x) for x in model.ample_witness],
        "ok": True,
    }, None


def cmd_zariski(doc, args):
    model = docio.parse_surface(doc)
    divisor = docio.parse_divisor(doc, model)
    candidates = docio.parse_candidates(doc, model)
    dec = zariski_decompose(model, divisor, candidates)
    payload = {
        "support": list(dec.support),
        "coefficients": {l: fmt(a) for l, a in dec.coeffs.items()},
        "positive_part": [fmt(x) for x in dec.positive_part.coords],
        "positive_square": fmt(pair(model, dec.positive_part, dec.positive_part)),
        "pairings": {
            l: fmt(pair_curve(model, dec.positive_part, l))
            for l in candidates
        },
    }
    if "subset" in doc:
        subset = docio.parse_labels(doc, model, "subset")
        rel = relative_negative_part(model, divisor, subset)
        payload["relative_negative_part"] = {l: fmt(b) for l, b in rel.items()}
    return payload, None


def cmd_ray_profile(doc, args):
    model = docio.parse_surface(doc)
    divisor = docio.parse_divisor(doc, model)
    flag = docio.parse_flag(doc, model)
    candidates = docio.parse_candidates(doc, model)
    profile = walk_ray(model, divisor, flag, candidates)
    return {"profile": _profile_payload(profile)}, None


def cmd_polygon(doc, args):
    model = docio.parse_surface(doc)
    return _polygon_payload(model, doc)


def cmd_invariants(doc, args):
    model = docio.parse_surface(doc)
    configs = doc.get("configs")
    if configs is None:
        configs = [doc.get("config", [])]
    if not isinstance(configs, list):
        raise InputError("configs: must be a list of label lists")
    rows = []
    for i, cfg in enumerate(configs):
        if not isinstance(cfg, list):
            raise InputError(f"configs[{i}]: must be a list of labels")
        for l in cfg:
            model.curve(l)
        rows.append(
            {"config": list(cfg), "k": len(cfg), "mc": mc(model, cfg), "mv": mv(model, cfg)}
        )
    return {
        "rank": model.rank,
        "picard_bound": 2 * model.rank + 1,
        "configs": rows,
        "max_mv": max((row["mv"] for row in rows), default=None),
    }, None


def cmd_flag_search(doc, args):
    model = docio.parse_surface(doc)
    divisor = docio.parse_divisor(doc, model)
    block = doc.get("flag_search", {})
    if not isinstance(block, dict):
        raise InputError("flag_search: must be an object")
    config = docio.parse_labels(
        {"config": block.get("config", [])}, model, "flag_search.config"
    )
    independent = block.get("independent", False)
    if not isinstance(independent, bool):
        raise InputError("flag_search.independent: must be a boolean")
    cert = find_ordered_ample_class(
        model, divisor, config, independent, budget=args.budget
    )
    return {
        "flag_class": [fmt(x) for x in cert.flag_class.coords],
        "coefficients": {l: fmt(a) for l, a in cert.coefficients.items()},
        "appearance": [{"label": l, "t": fmt(t)} for l, t in cert.appearance],
        "mu": fmt(cert.mu),
        "independent": cert.independent,
    }, None


def cmd_scan_vertex_counts(doc, args):
    model = docio.parse_surface(doc)
    divisor = docio.parse_divisor(doc, model)
    master = docio.parse_labels(doc, model, "master_config")
    if "target_v" in doc:
        v = docio.parse_int(doc["target_v"], "target_v")
        results = [realize_vertex_count(model, divisor, master, v, budget=args.budget)]
    else:
        results = scan_vertex_counts(model, divisor, master, budget=args.budget)
    rows = []
    for r in results:
        rows.append(
            {
                "v": r.target,
                "config": list(r.config),
                "placement": r.placement,
                "flag_class": [fmt(x) for x in r.profile.flag.cls.coords],
                "local_mult": dict(r.profile.flag.local_mult),
                "mu": fmt(r.profile.mu),
                "vertices": [docio.fmt_point(p) for p in r.polygon.vertices],
                "vertex_count": len(r.polygon.vertices),
                "independent": r.certificate.independent,
                "verified": r.verified(),
            }
        )
    return {"realizations": rows}, None


def cmd_toric_polygon(doc, args):
    fan = docio.parse_fan(doc)
    div = docio.parse_toric_divisor(doc, fan)
    newton = newton_polygon(fan, div)
    payload = {"newton_vertices": [docio.fmt_point(p) for p in newton]}
    if "flag_index" in doc:
        idx = docio.parse_int(doc["flag_index"], "flag_index")
        payload["flag_index"] = idx
        payload["okounkov_vertices"] = [
            docio.fmt_point(p) for p in monomial_valuation(fan, div, idx)(newton)
        ]
    return payload, None


def cmd_toric_crosscheck(doc, args):
    fan = docio.parse_fan(doc)
    div = docio.parse_toric_divisor(doc, fan)
    idx = docio.parse_int(doc.get("flag_index", 1), "flag_index")
    report = crosscheck(fan, div, idx)
    return {
        "flag_index": idx,
        "equal": report.equal,
        "vertices": [docio.fmt_point(p) for p in report.walk_vertices],
        "area2": fmt(report.area2),
        "divisor_square": fmt(report.divisor_square),
    }, None


def cmd_render_svg(doc, args):
    model = docio.parse_surface(doc)
    payload, polygon = _polygon_payload(model, doc)
    out = args.svg or "out.svg"
    render_svg(polygon, out, width=args.width, grid=not args.no_grid)
    return {"svg": out, "vertices": payload["vertices"]}, polygon


# each handler returns (payload body, polygon or None); main puts "schema" and
# "command" in front of the body
_COMMANDS = {
    "check-lattice": cmd_check_lattice,
    "zariski": cmd_zariski,
    "ray-profile": cmd_ray_profile,
    "polygon": cmd_polygon,
    "invariants": cmd_invariants,
    "flag-search": cmd_flag_search,
    "scan-vertex-counts": cmd_scan_vertex_counts,
    "toric-polygon": cmd_toric_polygon,
    "toric-crosscheck": cmd_toric_crosscheck,
    "render-svg": cmd_render_svg,
}


def _as_text(payload: dict) -> str:
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}{k}.", v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                emit(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix.rstrip('.')}: {value}")

    if payload.get("command") == "check-lattice":
        sig = tuple(payload["inertia"])
        lines.append(f"({sig[0]},{sig[1]},{sig[2]}) {'OK' if payload['ok'] else 'FAIL'}")
        lines.append(f"rank: {payload['rank']}")
        lines.append(f"curves: {', '.join(payload['curves'])}")
        return "\n".join(lines) + "\n"
    emit("", payload)
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every later
    `main` call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="noksurf",
        description="Exact Newton-Okounkov polygons from Neron-Severi lattice data",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("input", help="problem document (JSON)")
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", dest="format_"
    )
    parser.add_argument("--svg", help="also render the polygon to this SVG file")
    parser.add_argument("--width", type=int, default=480, help="SVG width in pixels")
    parser.add_argument("--no-grid", action="store_true", help="omit the lattice grid")
    parser.add_argument(
        "--budget", type=int, default=64, help="halving budget for searches"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.budget < 1:
            raise InputError(f"--budget must be at least 1, got {args.budget}")
        doc = docio.load_document(args.input)
        body, polygon = _COMMANDS[args.command](doc, args)
        payload = {"schema": docio.SCHEMA_VERSION, "command": args.command, **body}
        if args.svg and args.command != "render-svg":
            if polygon is None:
                raise InputError(f"command {args.command!r} does not produce a polygon")
            render_svg(polygon, args.svg, width=args.width, grid=not args.no_grid)
            payload["svg"] = args.svg
        out = (
            docio.dump_json(payload)
            if args.format_ == "json"
            else _as_text(payload)
        )
        sys.stdout.write(out)
        return 0
    except (TheoremViolation, OracleMismatch) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (InputError, ModelError, SearchFailure) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NoksurfError as exc:  # InternalError and anything unexpected
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
