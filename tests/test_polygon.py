import random
import re
from fractions import Fraction
from functools import cmp_to_key

import pytest

from helpers import _between_any, chain_model, corpus, forest_case, forest_corpus, integral
from noksurf import (
    BoundReport,
    CurveRecord,
    DivisorClass,
    FlagSpec,
    InputError,
    InternalError,
    PiecewiseLinear,
    QExt,
    SurfaceModel,
    TheoremViolation,
    alpha_beta,
    build_polygon,
    dual_graph_components,
    leftmost_side_check,
    leftmost_vertical_length,
    mc,
    mv,
    pair,
    polygon_area2,
    predict_interior_vertices,
    rightmost_count,
    side_lengths,
    side_slopes,
    vertex_bound_check,
    walk_ray,
)
from noksurf.flagbuilder import scan_vertex_counts
from noksurf.polygon import OkPolygon

BL1 = SurfaceModel(
    2,
    [[1, 0], [0, -1]],
    [CurveRecord("E", (0, 1)), CurveRecord("C", (2, -1))],
    (2, -1),
)
P2 = SurfaceModel(1, [[1]], [CurveRecord("H", (1,))], (1,))
CHAIN = SurfaceModel(
    3,
    [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
    [CurveRecord("C1", (0, 1, -1)), CurveRecord("C2", (0, 0, 1))],
    (3, -2, -1),
)

D1 = DivisorClass((3, -1))


def _pipeline(model, divisor, flag_target, mults, candidates):
    prof = walk_ray(model, divisor, FlagSpec(model, flag_target, mults), candidates)
    alpha, beta = alpha_beta(model, prof)
    poly = build_polygon(alpha, beta)
    return prof, alpha, beta, poly


def test_alpha_beta_on_point():
    prof, alpha, beta, poly = _pipeline(BL1, D1, "C", {"E": 1}, ["E"])
    assert alpha.breakpoints == (0, 1, Fraction(3, 2))
    assert alpha.values == (0, 0, Fraction(1, 2))
    assert beta.values == (5, 2, Fraction(1, 2))
    assert beta.slopes() == (-3, -3)
    assert poly.vertices == (
        (0, 0),
        (1, 0),
        (Fraction(3, 2), Fraction(1, 2)),
        (0, 5),
    )
    assert poly.tags == (
        "leftmost-lower",
        "interior-lower",
        "rightmost-degenerate",
        "leftmost-upper",
    )
    assert polygon_area2(poly) == 8  # D^2


def test_alpha_beta_off_point():
    prof, alpha, beta, poly = _pipeline(BL1, D1, "C", {}, ["E"])
    assert alpha.values == (0, 0, 0)
    assert beta.values == (5, 2, 0)
    assert beta.slopes() == (-3, -4)
    assert poly.vertices == (
        (0, 0),
        (Fraction(3, 2), 0),
        (1, 2),
        (0, 5),
    )
    assert polygon_area2(poly) == 8


def test_p2_triangle():
    prof, alpha, beta, poly = _pipeline(P2, DivisorClass((3,)), "H", {}, [])
    assert alpha.values == (0, 0)
    assert beta.values == (3, 0)
    assert poly.vertices == ((0, 0), (3, 0), (0, 3))
    assert polygon_area2(poly) == 9


def test_ex2_negative_flag():
    prof, alpha, beta, poly = _pipeline(
        BL1, DivisorClass((1, 1)), "E", {}, ["E"]
    )
    assert prof.nu == 1 and prof.mu == 2
    assert poly.vertices == ((1, 0), (2, 0), (2, 1))
    assert poly.tags == ("leftmost-degenerate", "rightmost-lower", "rightmost-upper")
    assert polygon_area2(poly) == 1  # P_0^2 = H^2
    assert leftmost_vertical_length(poly) == 0
    assert leftmost_side_check(BL1, prof) == 0


def test_ex3_five_vertices():
    flag_cls = DivisorClass((6, -3))
    prof, alpha, beta, poly = _pipeline(BL1, D1, flag_cls, {"E": 1}, ["E"])
    assert prof.nu == 0 and prof.mu == Fraction(1, 2)
    assert poly.vertices == (
        (0, 0),
        (Fraction(1, 3), 0),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 3), 6),
        (0, 15),
    )
    assert polygon_area2(poly) == 8
    assert len(poly.vertices) == 5 == mv(BL1, ["E"]) == 2 * BL1.rank + 1
    report = vertex_bound_check(BL1, poly, prof)
    assert report.vertex_count == report.mv_bound == 5


def test_beta_remark_identity():
    # beta(t) = D.C - t C^2 - (N_t.C - alpha(t)) at every breakpoint
    for mults in ({"E": 1}, {}):
        prof, alpha, beta, poly = _pipeline(BL1, D1, "C", mults, ["E"])
        cls = prof.flag.cls
        dc = pair(BL1, D1, cls)
        csq = pair(BL1, cls, cls)
        for seg in prof.segments:
            for t in (seg.t_lo, seg.t_hi):
                nt_c = sum(
                    ((a0 + a1 * t) * pair(BL1, BL1.class_of(l), cls)
                     for l, (a0, a1) in seg.coeffs.items()),
                    Fraction(0),
                )
                lhs = _at(beta, t)
                rhs = dc - t * csq - (nt_c - _at(alpha, t))
                assert lhs == rhs


def test_side_slopes_examples():
    prof, alpha, beta, _ = _pipeline(BL1, D1, "C", {"E": 1}, ["E"])
    assert side_slopes(BL1, prof, alpha, beta) == [(0, -3), (1, -3)]
    # the formulas are checked against the boundary functions they are given
    with pytest.raises(InternalError):
        side_slopes(BL1, prof, alpha, alpha)
    prof, alpha, beta, _ = _pipeline(P2, DivisorClass((3,)), "H", {}, [])
    assert side_slopes(P2, prof, alpha, beta) == [(0, -1)]


def test_side_lengths_and_leftmost():
    prof, alpha, beta, poly = _pipeline(BL1, D1, "C", {"E": 1}, ["E"])
    sides = side_lengths(poly)
    assert [(s.dt, s.ds) for s in sides] == [
        (1, 0),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(-3, 2), Fraction(9, 2)),
        (0, -5),
    ]
    assert leftmost_vertical_length(poly) == 5
    assert leftmost_side_check(BL1, prof) == 5  # P_0 = D, D.C = 5


def test_predictions_match_observations():
    prof, *_rest, poly = _pipeline(BL1, D1, "C", {"E": 1}, ["E"])
    preds = predict_interior_vertices(BL1, prof)
    assert len(preds) == 1
    assert preds[0].t == 1 and preds[0].expect_lower and not preds[0].expect_upper
    prof, *_rest, poly = _pipeline(BL1, D1, "C", {}, ["E"])
    preds = predict_interior_vertices(BL1, prof)
    assert preds[0].expect_upper and not preds[0].expect_lower
    # empty support: nothing to predict
    prof, *_rest, poly = _pipeline(P2, DivisorClass((2,)), "H", {}, [])
    assert predict_interior_vertices(P2, prof) == []


def test_rightmost_examples():
    prof, *_ = _pipeline(BL1, D1, "C", {"E": 1}, ["E"])
    r = rightmost_count(BL1, prof)
    assert (r.count, r.certified) == (1, True)
    # ample flag outside span([D], empty support): two rightmost vertices,
    # mu = (8 - 2 sqrt(2)) / 7 irrational
    m = SurfaceModel(
        3,
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [CurveRecord("E1", (0, 1, 0))],
        (3, -1, -1),
    )
    d = DivisorClass((3, -1, 0))
    a = DivisorClass((3, -1, -1))
    prof = walk_ray(m, d, a, ["E1"])
    assert prof.radicand == 2 and prof.final_support() == ()
    r = rightmost_count(m, prof)
    assert (r.count, r.certified, r.flag_in_span) == (2, True, False)
    assert r.observed == 2


def test_rightmost_uncertified_falls_back():
    m = SurfaceModel(
        2,
        [[1, 0], [0, -1]],
        [CurveRecord("E", (0, 1)), CurveRecord("H", (1, 0))],
        (2, -1),
    )
    prof = walk_ray(m, DivisorClass((3, -1)), "H", ["E"])
    r = rightmost_count(m, prof)
    assert (r.count, r.certified, r.observed) == (2, False, 2)


def test_flag_in_span_exactly_when_one_rightmost_vertex_is_observed():
    # on the last chamber P_t and p1 lie in the Lorentzian complement of the
    # support and P_t^2 > 0, so [C] lies in span([D], support) exactly when
    # disc = 0, which is exactly when the width P_mu.C is 0: the echelon
    # test and the walk's width agree on every walk
    seen = set()
    cases = (
        corpus(seed=2718, count=220)
        + forest_corpus(seed=8, count=6, rho=8)
        + forest_corpus(seed=16, count=4, rho=16)
    )
    for case in cases:
        prof = walk_ray(case.model, case.divisor, case.spec, case.candidates)
        r = rightmost_count(case.model, prof)
        assert r.flag_in_span == (r.observed == 1), case.name
        seen.add(r.flag_in_span)
    assert seen == {True, False}


def test_mc_mv_examples():
    assert mc(CHAIN, ["C1", "C2"]) == 2
    assert mc(CHAIN, ["C1"]) == 1
    assert mc(CHAIN, []) == 0
    m = SurfaceModel(
        3,
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [CurveRecord("E1", (0, 1, 0)), CurveRecord("E2", (0, 0, 1))],
        (3, -1, -1),
    )
    assert mc(m, ["E1", "E2"]) == 1  # disjoint
    assert mv(BL1, ["E"]) == 5  # k=1=rho-1: 1+1+3
    assert mv(CHAIN, ["C1", "C2"]) == 7  # 2 rho + 1
    assert mv(m, []) == 4
    with pytest.raises(InputError):
        mv(BL1, ["E", "C"])  # C is not negative: not a valid config
    with pytest.raises(InputError):
        mc(BL1, ["C"])


def test_mv_hodge_bound():
    with pytest.raises(InputError):
        mv(P2, ["H"])  # k=1 > rho-1=0


def test_flagspec_validation():
    # the constructor checks the flag once, with the messages a document's
    # flag block reports; E.C = 1 on BL1
    spec = FlagSpec(BL1, "C", {"E": 1})
    assert (spec.label, spec.cls, spec.local_mult) == ("C", BL1.class_of("C"), {"E": 1})
    assert (spec.mult("E"), spec.mult("C")) == (1, 0)
    assert FlagSpec(BL1, DivisorClass((2, -1)), {"E": 1}) == spec  # C's class
    undeclared = FlagSpec(BL1, [3, -1], {})
    assert (undeclared.label, undeclared.cls) == (None, DivisorClass((3, -1)))
    mults = {"E": 1}
    FlagSpec(BL1, "C", mults).local_mult["E"] = 0
    assert mults == {"E": 1}
    for flag, local, message in [
        ("C", {"C": 1}, "local multiplicities must not include the flag curve"),
        ("C", {"E": 2}, "local multiplicity of 'E' exceeds its total intersection 1"),
        ("C", {"E": -1}, "local multiplicity of 'E' must be a nonnegative integer"),
        ("C", {"E": True}, "local multiplicity of 'E' must be a nonnegative integer"),
        ("C", {"E": "1"}, "local multiplicity of 'E' must be a nonnegative integer"),
        ("C", {"X": True}, "unknown curve label 'X'"),  # before the bad multiplicity
        ("X", {}, "unknown curve label 'X'"),
        (DivisorClass((0, 0)), {}, "flag class must be nonzero"),
        ([1], {}, "class has 1 coordinates, expected 2"),
    ]:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            FlagSpec(BL1, flag, local)


def test_piecewise_linear_basics():
    f = PiecewiseLinear((0, 1, 3), (0, 2, 2))
    assert f.slopes() == (2, 0)
    assert _at(f, Fraction(1, 2)) == 1
    assert _at(f, 2) == 2
    assert integral(f) == 1 + 4
    assert f.is_convex() is False
    assert f.is_concave() is True
    with pytest.raises(InputError):
        PiecewiseLinear((0, 0), (1, 1))


def test_vertex_bound_check_raises_on_violation():
    prof, alpha, beta, poly = _pipeline(BL1, D1, "C", {"E": 1}, ["E"])
    bad = OkPolygon(poly.vertices, tuple(["interior-lower"] * len(poly.vertices)))
    message = (
        "vertex bounds violated: BoundReport(vertex_count=4, mv_bound=5, picard_bound=5, "
        "interior_lower=4, interior_lower_bound=1, interior_upper=0, interior_upper_bound=0)"
    )
    with pytest.raises(TheoremViolation, match=f"^{re.escape(message)}$"):
        vertex_bound_check(BL1, bad, prof)


# -- build_polygon on hand-built boundary functions ---------------------------


def _pl(breakpoints, start, slopes):
    """A PiecewiseLinear from its first value and the slope of every piece."""
    values = [start]
    for x0, x1, m in zip(breakpoints, breakpoints[1:], slopes):
        values.append(values[-1] + m * (x1 - x0))
    return PiecewiseLinear(tuple(breakpoints), tuple(values))


def _at(f, t):
    xs, ys = f.breakpoints, f.values
    i = next(i for i in range(len(xs) - 1) if t <= xs[i + 1])
    return ys[i] + (ys[i + 1] - ys[i]) * (t - xs[i]) / (xs[i + 1] - xs[i])


def _one_grid(alpha, beta):
    """alpha and beta rebuilt on the union of their breakpoints, the one
    grid build_polygon takes; the region between them is the same."""
    ts = tuple(sorted(set(alpha.breakpoints) | set(beta.breakpoints)))
    return tuple(PiecewiseLinear(ts, tuple(_at(f, t) for t in ts)) for f in (alpha, beta))


def _hull_oracle(alpha, beta):
    """Vertices and tags of the region between alpha and beta without
    reading slopes: the candidates are both graphs at every breakpoint
    of either function, a candidate is a vertex unless it lies between two
    others, and the vertices are sorted counterclockwise by cross products
    around the lowest leftmost one."""
    ts = set(alpha.breakpoints) | set(beta.breakpoints)
    pts = {(t, _at(f, t)) for t in ts for f in (alpha, beta)}
    verts = [p for p in pts if not _between_any(p, [q for q in pts if q != p])]
    first = min(verts)

    def turn(a, b):
        cross = (a[0] - first[0]) * (b[1] - first[1]) - (a[1] - first[1]) * (b[0] - first[0])
        return -1 if cross > 0 else 1

    ordered = [first] + sorted((v for v in verts if v != first), key=cmp_to_key(turn))
    nu_, mu_ = alpha.breakpoints[0], alpha.breakpoints[-1]
    tags = []
    for t, s in ordered:
        position = "leftmost" if t == nu_ else "rightmost" if t == mu_ else "interior"
        low, up = s == _at(alpha, t), s == _at(beta, t)
        tags.append(f"{position}-{'degenerate' if low and up else 'lower' if low else 'upper'}")
    return tuple(ordered), tuple(tags)


MU_IRRATIONAL = QExt(1, Fraction(1, 2), 2)  # 1 + sqrt(2)/2
HAND_BUILT = {
    "differing-breakpoints": _one_grid(_pl((0, 1, 3), 0, (0, 1)), _pl((0, 2, 3), 4, (0, -2))),
    "collinear-runs": (
        _pl((0, 1, 2, 3, 4), 0, (0, 0, 1, 1)),
        _pl((0, 1, 2, 3, 4), 6, (0, 0, -1, -1)),
    ),
    "touch-at-nu": _one_grid(_pl((0, 2), 1, (0,)), _pl((0, 1, 2), 1, (2, -1))),
    "touch-at-mu": _one_grid(_pl((0, 1, 2), 0, (0, 2)), _pl((0, 2), 4, (-1,))),
    "touch-at-both": (_pl((0, 1, 2), 0, (0, 1)), _pl((0, 1, 2), 0, (2, -1))),
    "irrational-mu": _one_grid(
        _pl((0, 1, MU_IRRATIONAL), 0, (0, 1)),
        _pl((0, Fraction(1, 2), MU_IRRATIONAL), 3, (0, -1)),
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_build_polygon_matches_hull_oracle(name):
    alpha, beta = HAND_BUILT[name]
    poly = build_polygon(alpha, beta)
    assert (poly.vertices, poly.tags) == _hull_oracle(alpha, beta)


def test_build_polygon_differing_breakpoints_by_hand():
    poly = build_polygon(*HAND_BUILT["differing-breakpoints"])
    assert poly.vertices == ((0, 0), (1, 0), (3, 2), (2, 4), (0, 4))
    assert poly.tags == (
        "leftmost-lower",
        "interior-lower",
        "rightmost-degenerate",
        "interior-upper",
        "leftmost-upper",
    )


def _random_boundaries(seed, count, radicands=()):
    """Convex alpha and concave beta drawn on independent breakpoint sets
    with repeated slopes and rebuilt on their union; beta is lifted to touch
    alpha (necessarily at nu or mu, where the concave beta - alpha is
    smallest) or to clear it.  With radicands, mu is p + q*sqrt(d) for one
    of them, past every rational breakpoint, and a touch at mu lifts beta
    by an irrational amount.  Boundaries with no area are left out: that case is tested on its own."""
    rng = random.Random(seed)
    for _ in range(count):
        top = mu_ = Fraction(rng.randrange(1, 9), rng.choice([1, 2, 3]))
        if radicands:
            q = Fraction(rng.randrange(1, 4), rng.choice([1, 2, 3]))
            mu_ = QExt(top, q, rng.choice(radicands))

        def breakpoints():
            inner = {top * Fraction(rng.randrange(1, 12), 12) for _ in range(rng.randrange(4))}
            return (0, *sorted(inner), mu_)

        def slopes(n):
            return [Fraction(rng.randrange(-4, 5), rng.choice([1, 2])) for _ in range(n)]

        xa = breakpoints()
        xb = breakpoints() if rng.random() < 0.6 else xa
        alpha = _pl(xa, Fraction(rng.randrange(3)), sorted(slopes(len(xa) - 1)))
        beta = _pl(xb, 0, sorted(slopes(len(xb) - 1), reverse=True))
        ts = set(xa) | set(xb)
        lift = max(_at(alpha, t) - _at(beta, t) for t in ts) + rng.choice([0, 0, 1, 3])
        beta = PiecewiseLinear(beta.breakpoints, tuple(v + lift for v in beta.values))
        if all(_at(alpha, t) == _at(beta, t) for t in ts):
            continue
        yield _one_grid(alpha, beta)


def test_build_polygon_matches_hull_oracle_on_random_boundaries():
    checked = 0
    for alpha, beta in _random_boundaries(9, 300):
        poly = build_polygon(alpha, beta)
        assert (poly.vertices, poly.tags) == _hull_oracle(alpha, beta)
        checked += 1
    assert checked > 250


def test_build_polygon_error_messages():
    line = _pl((0, 1, 2), 0, (1, 1))
    with pytest.raises(InternalError, match="^polygon degenerated to fewer than three vertices$"):
        build_polygon(line, line)
    # a concave alpha under a flat beta leaves a reflex vertex at t = 1
    with pytest.raises(InternalError, match="^polygon is not strictly convex counterclockwise$"):
        build_polygon(*_one_grid(_pl((0, 1, 2), 0, (2, -2)), _pl((0, 2), 3, (0,))))
    with pytest.raises(InternalError, match="^lower boundary exceeds upper boundary at t = 1$"):
        build_polygon(*_one_grid(_pl((0, 1, 2), 0, (2, -2)), _pl((0, 2), 1, (0,))))
    with pytest.raises(InputError, match="^alpha and beta must share their breakpoints$"):
        build_polygon(_pl((0, 1, 3), 0, (0, 1)), _pl((0, 2, 3), 4, (0, -2)))


# -- build_polygon against the point cross-product pass ------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _cross_product_polygon(alpha, beta):
    """The region between alpha and beta by one pass over both graphs that
    merges repeated points and drops collinear ones, with every turn decided
    by a cross product of points, which computes in Q(sqrt(d)) at an
    irrational mu."""
    assert alpha.breakpoints == beta.breakpoints
    rows = list(zip(alpha.breakpoints, alpha.values, beta.values))
    for t, a, b in rows:
        if a > b:
            raise InternalError(f"lower boundary exceeds upper boundary at t = {t}")
    lower, upper = 1, 2
    cycle = [((t, a), lower) for t, a, _ in rows]
    cycle += [((t, b), upper) for t, _, b in reversed(rows)]

    pts, chains = [], []
    for p, chain in cycle:
        if pts and pts[-1] == p:
            chains[-1] |= chain
            continue
        while len(pts) >= 2 and _cross(pts[-2], pts[-1], p) == 0:
            pts.pop()
            chains.pop()
        pts.append(p)
        chains.append(chain)
    if len(pts) > 1 and pts[-1] == pts[0]:
        chains[0] |= chains.pop()
        pts.pop()

    if len(pts) < 3:
        raise InternalError("polygon degenerated to fewer than three vertices")
    for i in range(len(pts)):
        if _cross(pts[i - 1], pts[i], pts[(i + 1) % len(pts)]) <= 0:
            raise InternalError("polygon is not strictly convex counterclockwise")

    level = {lower: "lower", upper: "upper", lower | upper: "degenerate"}
    t_nu, t_mu = alpha.breakpoints[0], alpha.breakpoints[-1]
    tags = []
    for (t, _s), chain in zip(pts, chains):
        position = "leftmost" if t == t_nu else "rightmost" if t == t_mu else "interior"
        tags.append(f"{position}-{level[chain]}")
    return OkPolygon(tuple(pts), tuple(tags))


def _outcome(build, alpha, beta):
    """The polygon build returns, or the error it raises."""
    try:
        return build(alpha, beta)
    except (InputError, InternalError) as exc:
        return type(exc).__name__, str(exc)


def _tent_boundaries(seed, count):
    """An affine alpha and beta = alpha + w up to an irrational mu, where w
    rises along a line through the rational breakpoints and falls back to
    0 at mu: the polygon touches alpha at both ends, and beta's last slope
    is irrational."""
    rng = random.Random(seed)
    for _ in range(count):
        top = Fraction(rng.randrange(1, 9), rng.choice([1, 2, 3]))
        mu_ = QExt(top, Fraction(rng.randrange(1, 4), rng.choice([1, 2, 3])), rng.choice([2, 3, 5]))
        inner = sorted({top * Fraction(rng.randrange(1, 13), 12) for _ in range(rng.randrange(1, 4))})
        a0, m = Fraction(rng.randrange(-2, 3)), Fraction(rng.randrange(-3, 4), rng.choice([1, 2]))
        h = Fraction(rng.randrange(1, 5), rng.choice([1, 2]))
        xs = (0, *inner, mu_)
        alpha = PiecewiseLinear((0, mu_), (a0, a0 + m * mu_))
        beta = PiecewiseLinear(xs, (a0, *(a0 + (m + h) * t for t in inner), a0 + m * mu_))
        yield _one_grid(alpha, beta)


@pytest.fixture(scope="module")
def pipeline_walks():
    """(model, profile) of the 220-case acceptance corpus, of forest
    models of rank 8, 16 and 32, and of every vertex-count realization the
    flag search finds on the chains of rank 3 to 6, most of them with an
    irrational mu."""
    cases = corpus(seed=777001, count=220)
    cases += [forest_case(random.Random(rho), rho) for rho in (8, 16, 32)]
    out = []
    for case in cases:
        out.append((case.model, walk_ray(case.model, case.divisor, case.spec, case.candidates)))
    for rho in (3, 4, 5, 6):
        model, divisor = chain_model(rho)
        for r in scan_vertex_counts(model, divisor, model.labels()):
            out.append((model, r.profile))
    return out


@pytest.fixture(scope="module")
def pipeline_boundaries(pipeline_walks):
    """alpha and beta of every pipeline walk."""
    return [alpha_beta(model, prof) for model, prof in pipeline_walks]


def test_build_polygon_matches_cross_products_on_random_boundaries():
    for alpha, beta in _random_boundaries(9, 300):
        assert _outcome(build_polygon, alpha, beta) == _outcome(_cross_product_polygon, alpha, beta)


def test_build_polygon_matches_cross_products_with_irrational_mu():
    touches = {"nu": 0, "mu": 0, "both": 0}
    boundaries = list(_random_boundaries(11, 300, radicands=(2, 3, 5)))
    boundaries += list(_tent_boundaries(13, 40))
    for alpha, beta in boundaries:
        assert isinstance(alpha.breakpoints[-1], QExt)
        poly = build_polygon(alpha, beta)
        assert poly == _cross_product_polygon(alpha, beta)
        at_nu = "leftmost-degenerate" in poly.tags
        at_mu = "rightmost-degenerate" in poly.tags
        if at_nu or at_mu:
            touches["both" if at_nu and at_mu else "nu" if at_nu else "mu"] += 1
    assert min(touches.values()) >= 20, touches


def test_build_polygon_matches_cross_products_on_the_pipeline(pipeline_boundaries):
    irrational = 0
    for alpha, beta in pipeline_boundaries:
        assert build_polygon(alpha, beta) == _cross_product_polygon(alpha, beta)
        irrational += isinstance(alpha.breakpoints[-1], QExt)
    assert irrational >= 40


def test_build_polygon_decides_no_quadratic_arithmetic(pipeline_walks, monkeypatch):
    # slopes are rational, so turns need no Q(sqrt(d)) arithmetic; the one
    # order decision directions cannot make is alpha(mu) <= beta(mu).  Around
    # it, alpha_beta, polygon_area2 and rightmost_count build their numbers
    # from the walk's integers, and the walk decides each sign at mu in them
    arithmetic = ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "_inverse")
    counted = arithmetic + ("__sub__", "sign", "_cmp")
    calls = dict.fromkeys(counted, 0)

    def counting(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in counted:
        monkeypatch.setattr(QExt, name, counting(name, getattr(QExt, name)))
    none = dict.fromkeys(counted, 0)
    irrational = [w for w in pipeline_walks if isinstance(w[1].mu, QExt)]
    assert len(irrational) >= 60
    for model, prof in irrational:
        calls.update(none)
        walked = walk_ray(model, prof.divisor, prof.flag, prof.candidates)
        assert calls["_cmp"] == 0
        calls.update(none)
        alpha, beta = alpha_beta(model, walked)
        assert calls == none
        poly = build_polygon(alpha, beta)
        assert {n: calls[n] for n in arithmetic} == dict.fromkeys(arithmetic, 0)
        assert calls["_cmp"] <= 1 and calls["sign"] <= calls["_cmp"]
        calls.update(none)
        polygon_area2(poly)
        rightmost_count(model, walked)
        assert calls == none


SHAPE_ERROR = ("InternalError", "polygon is not strictly convex counterclockwise")


def test_build_polygon_matches_cross_products_on_degenerate_boundaries():
    # slopes in any order: where alpha is convex and beta concave, the
    # outcomes are polygons and collapsed ones, as the point pass finds
    # them; every other shape is refused before any vertex is taken
    rng = random.Random(17)
    seen = {"polygon": 0, "polygon degenerated to fewer than three vertices": 0, "refused": 0}
    for _ in range(400):
        xs = (0, *sorted({Fraction(rng.randrange(1, 8), 2) for _ in range(rng.randrange(4))}), 4)
        slopes = [Fraction(rng.randrange(-2, 3)) for _ in range(len(xs) - 1)]
        alpha = _pl(xs, 0, slopes)
        beta = _pl(xs, 0, [m + rng.choice([0, 0, 1, -1]) for m in slopes])
        lift = max(_at(alpha, t) - _at(beta, t) for t in xs)
        beta = PiecewiseLinear(xs, tuple(v + lift for v in beta.values))
        outcome = _outcome(build_polygon, alpha, beta)
        if alpha.is_convex() and beta.is_concave():
            assert outcome == _outcome(_cross_product_polygon, alpha, beta)
            seen["polygon" if isinstance(outcome, OkPolygon) else outcome[1]] += 1
        else:
            assert outcome == SHAPE_ERROR
            seen["refused"] += 1
    assert min(seen.values()) > 0, seen


def test_build_polygon_refuses_a_beta_that_is_not_concave():
    # beta meets alpha along the last piece and bends up there (slopes -2,
    # 1): the old chain pass merged the opposite edges into a triangle
    alpha, beta = _pl((0, 1, 2), 0, (0, 1)), _pl((0, 1, 2), 2, (-2, 1))
    assert _outcome(build_polygon, alpha, beta) == SHAPE_ERROR


def test_build_polygon_matches_hull_oracle_with_irrational_mu():
    boundaries = list(_random_boundaries(11, 300, radicands=(2, 3, 5)))
    boundaries += list(_tent_boundaries(13, 40))
    for alpha, beta in boundaries:
        poly = build_polygon(alpha, beta)
        assert (poly.vertices, poly.tags) == _hull_oracle(alpha, beta)


def test_build_polygon_matches_hull_oracle_on_the_pipeline(pipeline_boundaries):
    irrational = 0
    for alpha, beta in pipeline_boundaries:
        poly = build_polygon(alpha, beta)
        assert (poly.vertices, poly.tags) == _hull_oracle(alpha, beta)
        irrational += isinstance(alpha.breakpoints[-1], QExt)
    assert irrational >= 40


def _leftmost_side_by_min(polygon):
    """The vertical side at the smallest abscissa, found by comparing every
    vertex's abscissa."""
    t_min = min(v[0] for v in polygon.vertices)
    svals = [v[1] for v in polygon.vertices if v[0] == t_min]
    return max(svals) - min(svals)


def test_leftmost_vertical_length_matches_min_oracle(pipeline_boundaries):
    boundaries = pipeline_boundaries + list(HAND_BUILT.values())
    boundaries += list(_random_boundaries(11, 100, radicands=(2, 3, 5)))
    for alpha, beta in boundaries:
        poly = build_polygon(alpha, beta)
        assert poly.vertices[0] == (alpha.breakpoints[0], alpha.values[0])
        assert leftmost_vertical_length(poly) == _leftmost_side_by_min(poly)


def _bounds_by_mv(model, polygon, profile):
    """vertex_bound_check's report by the earlier route: the public mv,
    which certifies the support negative definite again, and a second
    components pass for the interior bounds."""
    flag = profile.flag
    support = list(profile.final_support())
    comps = dual_graph_components(model, support)
    lower = {l for comp in comps if any(flag.mult(k) > 0 for k in comp) for l in comp}
    upper = {
        l for comp in comps if any(profile.flag_pairing(k) - flag.mult(k) > 0 for k in comp) for l in comp
    }
    return BoundReport(
        vertex_count=len(polygon.vertices),
        mv_bound=mv(model, support),
        picard_bound=2 * model.rank + 1,
        interior_lower=polygon.tags.count("interior-lower"),
        interior_lower_bound=len(lower),
        interior_upper=polygon.tags.count("interior-upper"),
        interior_upper_bound=len(upper),
    )


def test_vertex_bound_check_matches_mv_route(pipeline_walks, pipeline_boundaries):
    for (model, prof), (alpha, beta) in zip(pipeline_walks, pipeline_boundaries):
        poly = build_polygon(alpha, beta)
        assert vertex_bound_check(model, poly, prof) == _bounds_by_mv(model, poly, prof)


# -- alpha, beta and the area against their Fraction/QExt routes ---------------


def _alpha_beta_by_fractions(profile):
    """alpha_beta's values by the earlier route: Fraction sums over each
    segment's coefficients, evaluated at the breakpoints in Fraction/QExt
    arithmetic, and the public PiecewiseLinear, which divides for its
    slopes."""
    flag = profile.flag
    breakpoints = [profile.segments[0].t_lo]
    alpha_vals, beta_vals = [], []
    for seg in profile.segments:
        a0 = sum((seg.coeffs[l][0] * flag.mult(l) for l in seg.support), Fraction(0))
        a1 = sum((seg.coeffs[l][1] * flag.mult(l) for l in seg.support), Fraction(0))
        e, w, _, f0, fslope = seg.numerators
        b0, b1 = a0 + Fraction(f0, e * w), a1 + Fraction(fslope, e * w)
        if not alpha_vals:
            alpha_vals.append(a0 + a1 * seg.t_lo)
            beta_vals.append(b0 + b1 * seg.t_lo)
        assert (alpha_vals[-1], beta_vals[-1]) == (a0 + a1 * seg.t_lo, b0 + b1 * seg.t_lo)
        breakpoints.append(seg.t_hi)
        alpha_vals.append(a0 + a1 * seg.t_hi)
        beta_vals.append(b0 + b1 * seg.t_hi)
    return tuple(PiecewiseLinear(tuple(breakpoints), tuple(v)) for v in (alpha_vals, beta_vals))


def _shoelace_by_qext(polygon):
    """polygon_area2's earlier route: the shoelace sum in Fraction/QExt
    arithmetic."""
    total = Fraction(0)
    vs = polygon.vertices
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        total = total + (x0 * y1 - x1 * y0)
    if isinstance(total, QExt):
        raise InternalError("polygon area came out irrational")
    return total


def _exact(x):
    """A value under the package's convention: a Fraction, or an irrational QExt."""
    return type(x) is Fraction or (type(x) is QExt and x.q != 0)


def test_alpha_beta_area_and_width_match_the_fraction_routes(pipeline_walks):
    irrational = 0
    for model, prof in pipeline_walks:
        alpha, beta = alpha_beta(model, prof)
        for got, want in zip((alpha, beta), _alpha_beta_by_fractions(prof)):
            assert got.breakpoints == want.breakpoints
            assert got.values == want.values
            assert got.slopes() == want.slopes()
            assert all(map(_exact, got.breakpoints + got.values + got.slopes()))
        poly = build_polygon(alpha, beta)
        area2 = polygon_area2(poly)
        assert type(area2) is Fraction
        assert area2 == _shoelace_by_qext(poly) == prof.volume
        last = prof.segments[-1]
        e, w, _, f0, fslope = last.numerators
        width = Fraction(f0, e * w) + prof.mu * Fraction(fslope, e * w)
        assert rightmost_count(model, prof).observed == (1 if width == 0 else 2)
        irrational += isinstance(prof.mu, QExt)
    assert irrational >= 60


def _area_outcome(area2, polygon):
    try:
        return area2(polygon)
    except InternalError as exc:
        return str(exc)


def test_integer_shoelace_matches_the_qext_shoelace():
    boundaries = list(_random_boundaries(9, 300))
    boundaries += list(_random_boundaries(11, 300, radicands=(2, 3, 5)))
    boundaries += list(_tent_boundaries(13, 40))
    seen = {"rational": 0, "irrational": 0}
    for alpha, beta in boundaries:
        poly = build_polygon(alpha, beta)
        got = _area_outcome(polygon_area2, poly)
        assert got == _area_outcome(_shoelace_by_qext, poly)
        seen["irrational" if got == "polygon area came out irrational" else "rational"] += 1
    assert min(seen.values()) >= 100, seen
