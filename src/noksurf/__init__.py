"""Exact Newton-Okounkov polygons on surfaces from Neron-Severi lattice data."""

from fractions import Fraction as Rat

from .errors import (
    DegenerateInput,
    InputError,
    InternalError,
    ModelError,
    NoksurfError,
    OracleMismatch,
    SearchFailure,
    TheoremViolation,
)
from .lattice import (
    CurveRecord,
    DivisorClass,
    SurfaceModel,
    dual_graph_components,
    inertia,
    is_model_ample,
    is_negative_definite,
    pair,
)
from .polygon import (
    BoundReport,
    FlagSpec,
    OkPolygon,
    PiecewiseLinear,
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
from .qext import QExt, format_exact, sqrt_fraction
from .raywalk import RayProfile, Segment, appearance_times, nu, walk_ray
from .zariski import ZariskiResult, relative_negative_part, zariski_decompose

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CurveRecord",
    "DegenerateInput",
    "DivisorClass",
    "FlagSpec",
    "InputError",
    "InternalError",
    "ModelError",
    "NoksurfError",
    "OkPolygon",
    "OracleMismatch",
    "PiecewiseLinear",
    "QExt",
    "Rat",
    "RayProfile",
    "SearchFailure",
    "Segment",
    "SurfaceModel",
    "TheoremViolation",
    "ZariskiResult",
    "alpha_beta",
    "appearance_times",
    "build_polygon",
    "dual_graph_components",
    "format_exact",
    "inertia",
    "is_model_ample",
    "is_negative_definite",
    "leftmost_side_check",
    "leftmost_vertical_length",
    "mc",
    "mv",
    "nu",
    "pair",
    "polygon_area2",
    "predict_interior_vertices",
    "relative_negative_part",
    "rightmost_count",
    "side_lengths",
    "side_slopes",
    "sqrt_fraction",
    "vertex_bound_check",
    "walk_ray",
    "zariski_decompose",
]
