"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact arithmetic; there are no tolerances
anywhere, equality means equality of rationals or quadratic-extension
values.
"""
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from helpers import corpus, forest_corpus, integral
from noksurf import (
    CurveRecord,
    DivisorClass,
    FlagSpec,
    SurfaceModel,
    alpha_beta,
    build_polygon,
    mv,
    pair,
    polygon_area2,
    predict_interior_vertices,
    relative_negative_part,
    rightmost_count,
    side_lengths,
    side_slopes,
    vertex_bound_check,
    walk_ray,
    zariski_decompose,
)
from noksurf import docio
from noksurf.flagbuilder import scan_vertex_counts
from noksurf.qext import QExt, as_exact
from noksurf.toric import ToricDivisor, ToricFan, crosscheck

BL1 = SurfaceModel(
    2,
    [[1, 0], [0, -1]],
    [CurveRecord("E", (0, 1))],
    (2, -1),
)

CORPUS = corpus(seed=777001, count=220)
CASES_DIR = Path(__file__).resolve().parent.parent / "cases"
POLYGON_CASES = ["ex1_on_point", "ex1_off_point", "ex2_negative_flag", "ex3_tight", "p2_cubic"]


def _polygon(model, divisor, flag_target, mults, candidates):
    profile = walk_ray(model, divisor, FlagSpec(model, flag_target, mults), candidates)
    alpha, beta = alpha_beta(model, profile)
    poly = build_polygon(alpha, beta)
    return profile, alpha, beta, poly


def test_criterion_1_worked_example_blowup():
    d = DivisorClass((3, -1))
    *_, poly = _polygon(BL1, d, DivisorClass((2, -1)), {"E": 1}, ["E"])
    assert poly.vertices == (
        (0, 0),
        (1, 0),
        (Fraction(3, 2), Fraction(1, 2)),
        (0, 5),
    )
    assert polygon_area2(poly) == 8 == pair(BL1, d, d)
    *_, off = _polygon(BL1, d, DivisorClass((2, -1)), {}, ["E"])
    assert off.vertices == ((0, 0), (Fraction(3, 2), 0), (1, 2), (0, 5))
    assert polygon_area2(off) == 8
    print("ACCEPTANCE 1 PASS: EX1 polygons exact, both flag points, area 4 = D^2/2")


def test_criterion_2_worked_example_negative_flag():
    d = DivisorClass((1, 1))
    profile, *_, poly = _polygon(BL1, d, "E", {}, ["E"])
    assert profile.nu == 1 and profile.mu == 2
    assert poly.vertices == ((1, 0), (2, 0), (2, 1))
    p0 = zariski_decompose(BL1, d, ["E"]).positive_part
    assert polygon_area2(poly) == 1 == pair(BL1, p0, p0)
    print("ACCEPTANCE 2 PASS: EX2 nu=1, mu=2, triangle exact, area 1/2 = P0^2/2")


def test_criterion_3_tight_bound_example():
    d = DivisorClass((3, -1))
    profile, *_, poly = _polygon(BL1, d, DivisorClass((6, -3)), {"E": 1}, ["E"])
    assert poly.vertices == (
        (0, 0),
        (Fraction(1, 3), 0),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 3), 6),
        (0, 15),
    )
    assert polygon_area2(poly) == 8
    assert len(poly.vertices) == 5 == mv(BL1, ["E"]) == 2 * BL1.rank + 1
    vertex_bound_check(BL1, poly, profile)
    print("ACCEPTANCE 3 PASS: EX3 has 5 vertices exactly, 5 = mv({E}) = 2*rho+1, tight")


def test_criterion_4_toric_oracle_equality():
    p2 = ToricFan([(1, 0), (0, 1), (-1, -1)])
    f0 = ToricFan([(1, 0), (0, 1), (-1, 0), (0, -1)])
    f1 = ToricFan([(1, 0), (0, 1), (-1, 1), (0, -1)])
    f2 = ToricFan([(1, 0), (0, 1), (-1, 2), (0, -1)])
    dp6 = ToricFan([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
    battery = [
        (p2, [(0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 1, 1)]),
        (f0, [(0, 0, 1, 1), (1, 0, 2, 1)]),
        (f1, [(0, 0, 1, 2), (0, 0, 2, 3)]),
        (f2, [(0, 0, 1, 1), (1, 0, 2, 1)]),
        (dp6, [(1, 1, 1, 1, 1, 1), (2, 2, 1, 2, 2, 1)]),
    ]
    runs = 0
    for fan, divisors in battery:
        assert len(divisors) >= 2
        for coeffs in divisors:
            for idx in range(1, len(fan) + 1):
                report = crosscheck(fan, ToricDivisor(coeffs), idx)
                assert report.equal
                assert report.area2 == report.divisor_square
                runs += 1
    print(
        f"ACCEPTANCE 4 PASS: toric oracle equality on {runs} (fan, divisor, flag) "
        "triples, vertex-for-vertex exact"
    )


@pytest.fixture(scope="module")
def corpus_runs():
    out = []
    for case in CORPUS:
        profile = walk_ray(case.model, case.divisor, case.spec, case.candidates)
        alpha, beta = alpha_beta(case.model, profile)
        poly = build_polygon(alpha, beta)
        out.append((case, profile, alpha, beta, poly))
    return out


def test_criterion_5_area_law(corpus_runs):
    assert len(corpus_runs) >= 200
    for case, profile, alpha, beta, poly in corpus_runs:
        cands = list(case.candidates)
        if profile.flag.label is not None and profile.flag.label not in cands:
            cands.append(profile.flag.label)
        p0 = zariski_decompose(case.model, case.divisor, cands).positive_part
        p0sq = pair(case.model, p0, p0)
        assert polygon_area2(poly) == p0sq
        assert 2 * as_exact(integral(beta) - integral(alpha)) == p0sq
        assert alpha.is_convex() and alpha.is_nondecreasing()
        assert beta.is_concave()
    print(
        f"ACCEPTANCE 5 PASS: exact area law and boundary shape on "
        f"{len(corpus_runs)} randomized models"
    )


def test_criterion_6_theorem_suite(corpus_runs):
    assert len(corpus_runs) >= 200
    disagreements = 0
    for case, profile, alpha, beta, poly in corpus_runs:
        report = vertex_bound_check(case.model, poly, profile)
        assert report.vertex_count <= report.mv_bound <= 2 * case.model.rank + 1
        observed: dict = {}
        for (t, _s), tag in zip(poly.vertices, poly.tags):
            if tag.startswith("interior"):
                observed.setdefault(t, set()).add(tag.split("-")[1])
        predicted = set()
        for p in predict_interior_vertices(case.model, profile):
            predicted.add(p.t)
            got = observed.get(p.t, set())
            if p.expect_lower != ("lower" in got) or p.expect_upper != (
                "upper" in got
            ):
                disagreements += 1
        if not set(observed) <= predicted:
            disagreements += 1
        r = rightmost_count(case.model, profile)
        observed_right = sum(1 for t, _s in poly.vertices if t == profile.mu)
        if r.certified and r.count != observed_right:
            disagreements += 1
        if r.observed != observed_right:
            disagreements += 1
    assert disagreements == 0
    print(
        f"ACCEPTANCE 6 PASS: vertex bounds, interior predictor and rightmost "
        f"count agree on 100% of {len(corpus_runs)} models"
    )


def _computed_numbers(model, profile, alpha, beta, poly):
    """Every number the polygon pipeline computes for one document."""
    for seg in profile.segments:
        e, w, _, f0, fslope = seg.numerators
        yield seg.t_lo, seg.t_hi, Fraction(f0, e * w), Fraction(fslope, e * w)
        yield from seg.coeffs.values()
    yield profile.nu, profile.mu
    yield alpha.breakpoints + alpha.values + alpha.slopes()
    yield beta.breakpoints + beta.values + beta.slopes()
    yield from poly.vertices
    for side in side_lengths(poly):
        yield side.dt, side.ds
    yield (polygon_area2(poly),)
    yield from side_slopes(model, profile, alpha, beta)


def test_one_number_convention(corpus_runs):
    """A computed value is a Fraction, or a QExt with q != 0 on a ray whose mu
    is irrational: no int, and no QExt holding a rational."""
    runs = [(case.model, prof, *rest) for case, prof, *rest in corpus_runs]
    for name in POLYGON_CASES:
        doc = docio.load_document(str(CASES_DIR / f"{name}.json"))
        model = docio.parse_surface(doc)
        flag = docio.parse_flag(doc, model)
        divisor = docio.parse_divisor(doc, model)
        profile = walk_ray(model, divisor, flag, docio.parse_candidates(doc, model))
        alpha, beta = alpha_beta(model, profile)
        runs.append((model, profile, alpha, beta, build_polygon(alpha, beta)))
    irrational = 0
    for run in runs:
        profile = run[1]
        for group in _computed_numbers(*run):
            for x in group:
                if type(x) is QExt:
                    assert x.q != 0 and x.d == profile.radicand != 0
                    irrational += 1
                else:
                    assert type(x) is Fraction, repr(x)
    assert irrational > 0
    print(
        f"ACCEPTANCE PASS: every computed number on {len(runs)} documents is a "
        f"Fraction or an irrational QExt ({irrational} of the latter)"
    )


def test_homogeneity_in_the_divisor(corpus_runs):
    """Delta(k*D) = k*Delta(D) (Lazarsfeld-Mustata, Ann. Sci. ENS 42 (2009)):
    scaling D by k scales every vertex by k and twice the area by k^2."""

    def polygon(case, k):
        divisor = case.divisor.scale(k)
        return _polygon(case.model, divisor, case.flag, case.spec.local_mult, case.candidates)[3]

    runs = [(case, poly) for case, *_, poly in corpus_runs]
    forest = forest_corpus(seed=8008, count=3, rho=8) + forest_corpus(seed=1616, count=3, rho=16)
    runs += [(case, polygon(case, 1)) for case in forest]
    for case, poly in runs:
        for k in (2, 3):
            scaled = polygon(case, k)
            assert scaled.vertices == tuple((k * t, k * s) for t, s in poly.vertices), case.name
            assert polygon_area2(scaled) == k * k * polygon_area2(poly), case.name
    print(
        f"ACCEPTANCE PASS: vertices scale by k and areas by k^2 with D, k = 2, 3, "
        f"on {len(runs)} models up to rank {max(case.model.rank for case, _ in runs)}"
    )


def test_criterion_7_relative_negative_parts(corpus_runs):
    checked = 0
    for case, *_ in corpus_runs:
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
                        assert b <= dec.coeffs[l]
                        checked += 1
    assert checked >= 200
    print(
        f"ACCEPTANCE 7 PASS: b_i <= a_i exactly for {checked} (divisor, subset, "
        "curve) triples"
    )


def test_criterion_8_realization_scan():
    chain3 = SurfaceModel(
        3,
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [CurveRecord("C1", (0, 1, -1)), CurveRecord("C2", (0, 0, 1))],
        (3, -2, -1),
    )
    chain4 = SurfaceModel(
        4,
        [
            [1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ],
        [
            CurveRecord("C1", (0, 1, -1, 0)),
            CurveRecord("C2", (0, 0, 1, -1)),
            CurveRecord("C3", (0, 0, 0, 1)),
        ],
        (4, -3, -2, -1),
    )
    jobs = [
        (chain3, DivisorClass((4, -2, -1)), ["C1", "C2"]),
        (chain4, DivisorClass((5, -3, -2, -1)), ["C1", "C2", "C3"]),
    ]
    t0 = time.monotonic()
    total = 0
    for model, divisor, master in jobs:
        results = scan_vertex_counts(model, divisor, master)
        assert [r.target for r in results] == list(range(3, 2 * model.rank + 2))
        for r in results:
            assert len(r.polygon.vertices) == r.target
            # independent re-verification of the certificate by a fresh walk
            replay = walk_ray(model, divisor, r.certificate.flag_class, model.labels())
            assert replay.appearance == dict(r.certificate.appearance)
            assert replay.mu == r.certificate.mu
            times = [replay.appearance[l] for l in r.config]
            assert all(a < b for a, b in zip(times, times[1:]))
            total += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(
        f"ACCEPTANCE 8 PASS: every v in 3..2*rho+1 realized and re-verified on "
        f"both chain models ({total} flags) in {elapsed:.2f}s"
    )
