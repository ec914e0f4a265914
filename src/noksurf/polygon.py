"""Newton-Okounkov polygon assembly, vertex classification, and invariants.

The polygon of a big class with respect to a flag (C, p) is the region
nu <= t <= mu, alpha(t) <= s <= beta(t), where alpha collects the local
contribution of the moving negative part at p and beta adds the pairing of
the moving positive part with C.  Both are piecewise affine with breakpoints
at the walk's wall times, so the region is a polygon whose vertex abscissas
all lie among nu, the wall times, and mu.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .errors import InputError, InternalError, ModelError, TheoremViolation
from .lattice import (
    SurfaceModel,
    dual_graph_components,
    is_model_ample,
    is_negative_definite,
    pair,
)
from .qext import QExt, as_exact
from .raywalk import RayProfile
from .record import Record


class PiecewiseLinear(Record):
    """Continuous piecewise affine function given by breakpoint/value pairs;
    the public constructor checks them and computes the slope of every
    piece once.  `_of(breakpoints, values, slopes)` takes all three from a
    caller that has certified them, as alpha_beta's walk has."""

    __slots__ = ("breakpoints", "values", "_slopes")
    _compared = __slots__[:2]  # all but _slopes

    def __init__(self, breakpoints: tuple, values: tuple):
        xs = tuple(as_exact(x) for x in breakpoints)
        ys = tuple(as_exact(y) for y in values)
        if len(xs) != len(ys) or len(xs) < 2:
            raise InputError("need matching breakpoints and values, at least two")
        slopes = []
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            if not x0 < x1:
                raise InputError("breakpoints must be strictly increasing")
            slopes.append((y1 - y0) / (x1 - x0))
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "values", ys)
        object.__setattr__(self, "_slopes", tuple(slopes))

    def slopes(self) -> tuple:
        return self._slopes

    def is_convex(self) -> bool:
        s = self._slopes
        return all(a <= b for a, b in zip(s, s[1:]))

    def is_concave(self) -> bool:
        s = self._slopes
        return all(a >= b for a, b in zip(s, s[1:]))

    def is_nondecreasing(self) -> bool:
        return all(s >= 0 for s in self._slopes)


def _value(n0, n1, den, t):
    """(n0 + n1*t)/den for integers n0, n1, den: one Fraction at a rational
    t, one QExt from the components at an irrational mu."""
    if type(t) is Fraction:
        return Fraction(n0 * t.denominator + n1 * t.numerator, den * t.denominator)
    p, q = t.p, t.q
    return QExt._of(
        Fraction(n0 * p.denominator + n1 * p.numerator, den * p.denominator),
        Fraction(n1 * q.numerator, den * q.denominator),
        t.d,
    )


def alpha_beta(model: SurfaceModel, profile: RayProfile):
    """Boundary functions of the polygon: alpha below, beta above, for the
    flag the profile was walked with.

    alpha(t) sums a_j(t) * (C_j.C)_p over the moving support; beta(t) is
    alpha(t) + P_t.C.  The equivalent expansion
    beta(t) = D.C - t C^2 - (N_t.C - alpha(t)) is an identity of the same
    data and is exercised by the test suite as a consistency check.
    """
    flag = profile.flag
    if any(flag.label in seg.support for seg in profile.segments):
        raise ModelError("flag curve appears in the moving support")

    # alpha = (A0 + A1*t)/e and beta = (B0 + B1*t)/(e*w) on each chamber,
    # from the chamber's integers
    breakpoints = [profile.segments[0].t_lo]
    alpha_vals, beta_vals, alpha_slopes, beta_slopes = [], [], [], []
    for seg in profile.segments:
        e, w, nums, f0, fslope = seg.numerators
        a0 = a1 = 0
        for l, (x0, x1) in nums.items():
            m = flag.mult(l)
            a0 += x0 * m
            a1 += x1 * m
        ew = e * w
        b0, b1 = a0 * w + f0, a1 * w + fslope
        alo, blo = _value(a0, a1, e, seg.t_lo), _value(b0, b1, ew, seg.t_lo)
        if not alpha_vals:
            alpha_vals.append(alo)
            beta_vals.append(blo)
        elif alpha_vals[-1] != alo or beta_vals[-1] != blo:
            raise InternalError("boundary functions are discontinuous at a wall")
        breakpoints.append(seg.t_hi)
        alpha_vals.append(_value(a0, a1, e, seg.t_hi))
        beta_vals.append(_value(b0, b1, ew, seg.t_hi))
        alpha_slopes.append(Fraction(a1, e))
        beta_slopes.append(Fraction(b1, ew))

    breakpoints = tuple(breakpoints)
    alpha = PiecewiseLinear._of(breakpoints, tuple(alpha_vals), tuple(alpha_slopes))
    beta = PiecewiseLinear._of(breakpoints, tuple(beta_vals), tuple(beta_slopes))
    if not (alpha.is_convex() and alpha.is_nondecreasing()):
        raise ModelError("lower boundary is not convex nondecreasing; inconsistent model data")
    if not beta.is_concave():
        raise ModelError("upper boundary is not concave; inconsistent model data")
    return alpha, beta


# -- polygon ----------------------------------------------------------------


class OkPolygon(Record):
    """Counterclockwise vertex cycle with boundary provenance per vertex.

    The vertices are (t, s) pairs with exact coordinates, and each tag is
    {leftmost|interior|rightmost}-{lower|upper|degenerate}.
    """

    __slots__ = ("vertices", "tags")


def build_polygon(alpha: PiecewiseLinear, beta: PiecewiseLinear) -> OkPolygon:
    """The region between alpha and beta as a convex tagged ccw polygon.

    alpha and beta share their breakpoints, alpha <= beta at each of them,
    alpha is convex and beta concave, as alpha_beta builds and certifies
    them; the region between a convex lower and a concave upper boundary
    (Kuronya-Lozovanu-Maclean) has its vertices exactly where a boundary
    bends.  They run left to right along alpha at nu, at every breakpoint
    where alpha's slope changes and at mu, then right to left along beta at
    mu, where beta's slope changes and at nu; an end where alpha = beta is
    one degenerate vertex.  A convex alpha under a concave beta turns
    strictly left at each of them, and beta - alpha vanishing along a whole
    end piece forces beta = alpha, both affine, by concavity: two vertices.
    Each vertex is tagged by its position against nu and mu (the ends of
    alpha's domain) and by the boundary it lies on.
    """
    xs = alpha.breakpoints
    if beta.breakpoints != xs:
        raise InputError("alpha and beta must share their breakpoints")
    for t, a, b in zip(xs, alpha.values, beta.values):
        # at an irrational mu, the one order decision on a quadratic value
        if a > b:
            raise InternalError(f"lower boundary exceeds upper boundary at t = {t}")
    if not (alpha.is_convex() and beta.is_concave()):
        raise InternalError("polygon is not strictly convex counterclockwise")

    n = len(xs) - 1
    sa, sb = alpha._slopes, beta._slopes
    ends = {0: "leftmost", n: "rightmost"}
    touching = {i for i in (0, n) if alpha.values[i] == beta.values[i]}
    vertices, tags = [], []
    for i in (0, *(i for i in range(1, n) if sa[i - 1] != sa[i]), n):
        vertices.append((xs[i], alpha.values[i]))
        tags.append(f"{ends.get(i, 'interior')}-{'degenerate' if i in touching else 'lower'}")
    for i in (n, *(i for i in range(n - 1, 0, -1) if sb[i - 1] != sb[i]), 0):
        if i not in touching:
            vertices.append((xs[i], beta.values[i]))
            tags.append(f"{ends.get(i, 'interior')}-upper")
    if len(vertices) < 3:
        raise InternalError("polygon degenerated to fewer than three vertices")
    return OkPolygon(vertices=tuple(vertices), tags=tuple(tags))


def polygon_area2(polygon: OkPolygon):
    """Twice the area by the shoelace sum, exact and in integers: every
    coordinate p + q*sqrt(d) goes over one common denominator L, so the sum
    is (r + i*sqrt(d))/L^2 for integers r and i, and i must vanish."""
    coords = [x for pt in polygon.vertices for x in pt]
    radicands = {x.d for x in coords if type(x) is QExt}
    if len(radicands) > 1:
        raise InputError(f"mixed quadratic radicands in the polygon: {sorted(radicands)}")
    d = radicands.pop() if radicands else 0
    # (p, q) of every coordinate, x and y alternating
    comps = [(x.p, x.q) if type(x) is QExt else (x, 0) for x in coords]
    den = lcm(*(c.denominator for pq in comps for c in pq))
    ints = [tuple(c.numerator * (den // c.denominator) for c in pq) for pq in comps]
    xs, ys = ints[0::2], ints[1::2]
    rat = irr = 0
    for (x0, u0), (y0, v0), (x1, u1), (y1, v1) in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
        # (x0 + u0 r)(y1 + v1 r) - (x1 + u1 r)(y0 + v0 r) with r = sqrt(d)
        rat += x0 * y1 - x1 * y0 + (u0 * v1 - u1 * v0) * d
        irr += x0 * v1 + u0 * y1 - x1 * v0 - u1 * y0
    if irr:
        raise InternalError("polygon area came out irrational")
    return Fraction(rat, den * den)


# -- predictions and counts --------------------------------------------------


class InteriorPrediction(Record):
    __slots__ = ("t", "entering", "expect_lower", "expect_upper")


def predict_interior_vertices(
    model: SurfaceModel, profile: RayProfile
) -> list[InteriorPrediction]:
    """Predicted interior vertices at each wall, from the dual graph alone.

    A wall contributes a lower vertex iff a connected component of the
    post-wall support contains an entering curve and meets the flag point;
    an upper vertex iff such a component meets C away from the flag point.
    """
    out = []
    for seg_prev, seg in zip(profile.segments, profile.segments[1:]):
        t_star = seg.t_lo
        entering = tuple(l for l in seg.support if l not in seg_prev.support)
        if not entering:
            continue
        lower = upper = False
        for comp in dual_graph_components(model, seg.support):
            if any(l in entering for l in comp):
                at, away = _meets_flag(profile, comp)
                lower, upper = lower or at, upper or away
        out.append(InteriorPrediction(t_star, entering, lower, upper))
    return out


def _meets_flag(profile: RayProfile, comp) -> tuple[bool, bool]:
    """Whether a component meets C at the flag point, and whether it meets
    C away from it: some curve with a positive local multiplicity, and some
    with C.C_l above it."""
    flag = profile.flag
    return (
        any(flag.mult(l) > 0 for l in comp),
        any(profile.flag_pairing(l) - flag.mult(l) > 0 for l in comp),
    )


class RightmostReport(Record):
    __slots__ = ("count", "certified", "observed", "flag_in_span")


def rightmost_count(model: SurfaceModel, profile: RayProfile) -> RightmostReport:
    """1 when [C] lies in the span of [D] and the terminal support, else 2
    for a certified-ample flag; uncertified cases fall back to the observed
    count with a warning flag (certified=False).  D and C are the profile's."""
    cls = profile.flag.cls
    span = [profile.divisor.coords, *(model.curve(l).cls for l in profile.final_support())]
    in_v = linalg.in_span(span, cls.coords)
    # the width P_mu.F = (f0 + fslope*mu)/(e*w); at an irrational mu it
    # vanishes only when both integers do
    *_, f0, fslope = profile.segments[-1].numerators
    mu = profile.mu
    if type(mu) is Fraction:
        touches = f0 * mu.denominator + fslope * mu.numerator == 0
    else:
        touches = f0 == fslope == 0
    observed = 1 if touches else 2
    if in_v:
        return RightmostReport(1, True, observed, True)
    if is_model_ample(model, cls):
        return RightmostReport(2, True, observed, False)
    return RightmostReport(observed, False, observed, False)


def side_slopes(
    model: SurfaceModel, profile: RayProfile, alpha: PiecewiseLinear, beta: PiecewiseLinear
):
    """Per-segment (lower, upper) slopes from intersection numbers only.

    lower = sum a_j1 (C_j.C)_p;  upper = sum a_j1 ((C_j.C)_p - C_j.C) - C^2,
    in Fractions over the `Segment.coeffs` slopes a_j1 and the flag's
    pairings.  Cross-checked against the slopes of the given alpha and beta,
    which alpha_beta built from the chambers' integer numerators.
    """
    flag = profile.flag
    out = []
    for seg in profile.segments:
        lower = Fraction(0)
        upper = -profile.flag_square
        for l in seg.support:
            a1 = seg.coeffs[l][1]
            m = flag.mult(l)
            lower += a1 * m
            upper += a1 * (m - profile.flag_pairing(l))
        out.append((lower, upper))
    if tuple(s[0] for s in out) != alpha.slopes() or tuple(
        s[1] for s in out
    ) != beta.slopes():
        raise InternalError("slope formulas disagree with the boundary functions")
    return out


class Side(Record):
    """One side of a polygon: its start and end vertices and exact steps."""

    __slots__ = ("start", "end", "dt", "ds")


def side_lengths(polygon: OkPolygon) -> list[Side]:
    """Exact (dt, ds) of every side, counterclockwise from the first vertex."""
    vs = polygon.vertices
    out = []
    for a, b in zip(vs, vs[1:] + vs[:1]):
        out.append(Side(a, b, b[0] - a[0], b[1] - a[1]))
    return out


def leftmost_vertical_length(polygon: OkPolygon):
    """Length of the vertical side at nu: build_polygon puts (nu, alpha(nu))
    first and (nu, beta(nu)) last when beta(nu) > alpha(nu), else the
    polygon has a single leftmost vertex and the length is 0."""
    vs = polygon.vertices
    return vs[-1][1] - vs[0][1] if vs[-1][0] == vs[0][0] else Fraction(0)


def leftmost_side_check(model: SurfaceModel, profile: RayProfile):
    """Independent value of the leftmost side length: P_0.C from the
    decomposition of D itself that the walk starts from, not from the
    chamber solve the polygon's side comes from."""
    return pair(model, profile.decomposition.positive_part, profile.flag.cls)


# -- configuration invariants ------------------------------------------------


def _distinct(labels: list) -> list:
    if len(set(labels)) != len(labels):
        raise InputError("configuration labels must be distinct")
    return labels


def _components(model: SurfaceModel, labels: list) -> list[list[str]]:
    if not is_negative_definite(model, _distinct(labels)):
        raise InputError(f"configuration {labels} is not negative definite")
    return dual_graph_components(model, labels)


def mc(model: SurfaceModel, config) -> int:
    """Largest number of curves in a connected subdivisor of the configuration."""
    return max(map(len, _components(model, list(config))), default=0)


def mv(model: SurfaceModel, config) -> int:
    """Vertex-count invariant of a negative definite configuration."""
    labels = _distinct(list(config))  # a repeat is named before the bound
    k = len(labels)
    if k > model.rank - 1:
        raise InputError(
            f"configuration of {k} curves exceeds the Hodge bound rank-1 = {model.rank - 1}"
        )
    return mv_of_components(model, _components(model, labels))


def mv_of_components(model: SurfaceModel, comps) -> int:
    """mv from the dual-graph components of a configuration its caller has
    certified negative definite (so of at most rank-1 curves)."""
    k = sum(map(len, comps))
    return k + max(map(len, comps), default=0) + (4 if k < model.rank - 1 else 3)


class BoundReport(Record):
    __slots__ = (
        "vertex_count", "mv_bound", "picard_bound", "interior_lower", "interior_lower_bound",
        "interior_upper", "interior_upper_bound",
    )

    @property
    def ok(self) -> bool:
        return (
            self.vertex_count <= self.mv_bound <= self.picard_bound
            and self.interior_lower <= self.interior_lower_bound
            and self.interior_upper <= self.interior_upper_bound
        )


def vertex_bound_check(
    model: SurfaceModel, polygon: OkPolygon, profile: RayProfile
) -> BoundReport:
    """Assert the vertex-count bounds against the terminal support.

    Total vertices are bounded by the configuration invariant of the support
    at mu (itself at most 2*rank+1).  Interior lower vertices are bounded by
    the size of the flag-point component of that support; interior upper
    vertices by the curves in components meeting C away from the flag point.
    A component through the point counts toward both sides whenever one of
    its curves also meets C elsewhere.  The walk's last solve certified the
    support negative definite, so mv is taken from its components directly.
    """
    comps = dual_graph_components(model, list(profile.final_support()))
    meets = [_meets_flag(profile, c) for c in comps]
    report = BoundReport(
        vertex_count=len(polygon.vertices),
        mv_bound=mv_of_components(model, comps),
        picard_bound=2 * model.rank + 1,
        interior_lower=polygon.tags.count("interior-lower"),
        interior_lower_bound=sum(len(c) for c, (at, _) in zip(comps, meets) if at),
        interior_upper=polygon.tags.count("interior-upper"),
        interior_upper_bound=sum(len(c) for c, (_, away) in zip(comps, meets) if away),
    )
    if not report.ok:
        raise TheoremViolation(f"vertex bounds violated: {report}")
    return report
