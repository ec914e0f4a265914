"""Classified properties on a randomized corpus of geometric models.

Every case is built from an actual blowup configuration, so the classified
statements (area law, convexity, vertex bounds, predictor agreement,
rightmost counts, relative-part monotonicity) must hold exactly; any
failure here is a library bug, not noise.
"""
import random
from itertools import combinations

import pytest

from helpers import Case, _forest_curves, corpus, integral
from noksurf import (
    alpha_beta,
    build_polygon,
    pair,
    polygon_area2,
    predict_interior_vertices,
    relative_negative_part,
    rightmost_count,
    side_slopes,
    vertex_bound_check,
    walk_ray,
    zariski_decompose,
)
from noksurf.qext import as_exact

CASES = corpus(seed=90125, count=120)


def _run(case: Case):
    profile = walk_ray(case.model, case.divisor, case.spec, case.candidates)
    alpha, beta = alpha_beta(case.model, profile)
    polygon = build_polygon(alpha, beta)
    return profile, alpha, beta, polygon


@pytest.fixture(scope="module")
def pipeline_results():
    out = []
    for case in CASES:
        out.append((case, *_run(case)))
    return out


@pytest.mark.parametrize("rho", [128, 192])
def test_forest_line_labels_are_distinct(rho):
    # labels only, so no model is built at these ranks; a label without a
    # separator between the two point indices collides here (L3185)
    for seed in range(8):
        curves, _witness = _forest_curves(random.Random(seed), rho)
        labels = [c.label for c in curves]
        assert len(set(labels)) == len(labels), (rho, seed)


def test_area_law(pipeline_results):
    for case, profile, alpha, beta, polygon in pipeline_results:
        cands = list(case.candidates)
        if profile.flag.label is not None and profile.flag.label not in cands:
            cands.append(profile.flag.label)
        p0 = zariski_decompose(case.model, case.divisor, cands).positive_part
        p0sq = pair(case.model, p0, p0)
        area2 = polygon_area2(polygon)
        assert area2 == p0sq, case.name
        # and the exact integral of the width agrees
        diff_int = as_exact(integral(beta) - integral(alpha))
        assert 2 * diff_int == p0sq, case.name


def test_boundary_shape(pipeline_results):
    for case, profile, alpha, beta, polygon in pipeline_results:
        assert alpha.is_convex() and alpha.is_nondecreasing(), case.name
        assert beta.is_concave(), case.name
        bps = alpha.breakpoints
        assert all(a <= b for a, b in zip(alpha.values, beta.values))
        # vertex abscissas among {nu, wall times, mu}
        allowed = set(bps)
        for t, _s in polygon.vertices:
            assert t in allowed, case.name


def test_vertex_bounds(pipeline_results):
    for case, profile, alpha, beta, polygon in pipeline_results:
        report = vertex_bound_check(case.model, polygon, profile)
        assert report.ok
        assert report.vertex_count <= report.mv_bound <= report.picard_bound


def test_interior_predictions_agree(pipeline_results):
    for case, profile, alpha, beta, polygon in pipeline_results:
        observed: dict = {}
        for (t, _s), tag in zip(polygon.vertices, polygon.tags):
            if tag.startswith("interior"):
                observed.setdefault(t, set()).add(tag.split("-")[1])
        predicted_ts = set()
        for p in predict_interior_vertices(case.model, profile):
            predicted_ts.add(p.t)
            got = observed.get(p.t, set())
            assert p.expect_lower == ("lower" in got), (case.name, p)
            assert p.expect_upper == ("upper" in got), (case.name, p)
        # no interior vertex escapes the prediction
        assert set(observed) <= predicted_ts, case.name


def test_rightmost_counts_agree(pipeline_results):
    for case, profile, alpha, beta, polygon in pipeline_results:
        r = rightmost_count(case.model, profile)
        observed = sum(1 for t, _s in polygon.vertices if t == profile.mu)
        assert r.observed == observed, case.name
        if r.certified:
            assert r.count == observed, case.name


def test_segment_slope_formulas(pipeline_results):
    for case, profile, alpha, beta, polygon in pipeline_results:
        slopes = side_slopes(case.model, profile, alpha, beta)
        assert tuple(s[0] for s in slopes) == alpha.slopes()
        assert tuple(s[1] for s in slopes) == beta.slopes()


def test_relative_parts_bounded_by_full(pipeline_results):
    checked = 0
    for case, profile, alpha, beta, polygon in pipeline_results:
        divisors = [case.divisor]
        if case.model.curves:
            scale = 1 + max(
                pair(case.model, case.divisor, case.model.class_of(l))
                for l in case.model.labels()
            )
            loaded = case.divisor
            for rec in case.model.curves:
                loaded = loaded + case.model.class_of(rec.label).scale(scale)
            divisors.append(loaded)
        for d in divisors:
            dec = zariski_decompose(case.model, d, case.model.labels())
            support = list(dec.support)
            for r in range(1, len(support) + 1):
                for subset in combinations(support, r):
                    rel = relative_negative_part(case.model, d, list(subset))
                    for l, b in rel.items():
                        assert b <= dec.coeffs[l], case.name
                        checked += 1
    assert checked >= 100


def test_mu_positive_width(pipeline_results):
    for case, profile, alpha, beta, polygon in pipeline_results:
        assert profile.mu > profile.nu
        assert len(polygon.vertices) >= 3
