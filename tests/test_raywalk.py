from fractions import Fraction
from math import isqrt, lcm
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import chain_model, corpus, forest_corpus, gauss_jordan, zariski_negative_part
from noksurf import (
    CurveRecord,
    DivisorClass,
    FlagSpec,
    InputError,
    InternalError,
    ModelError,
    NoksurfError,
    QExt,
    SurfaceModel,
    appearance_times,
    nu,
    pair,
    walk_ray,
    zariski_decompose,
)
import noksurf.flagbuilder as flagbuilder
import noksurf.qext as qext
import noksurf.raywalk as raywalk
from noksurf.lattice import pair_curve
from noksurf.qext import sqrt_fraction
from noksurf.raywalk import (
    _at,
    _chamber_steps,
    _cone_exit,
    _earliest_wall,
    _missed_wall,
    _mu,
    _pairings,
    _Ray,
    _segment_system,
    _sign,
    _solution,
)

BL1 = SurfaceModel(
    2,
    [[1, 0], [0, -1]],
    [CurveRecord("E", (0, 1)), CurveRecord("C", (2, -1))],
    (2, -1),
)
P2 = SurfaceModel(1, [[1]], [CurveRecord("H", (1,))], (1,))


def test_nu_examples():
    assert nu(BL1, DivisorClass((3, -1)), "C", ["E"]) == 0
    assert nu(BL1, DivisorClass((1, 1)), "E", ["E"]) == 1
    assert nu(BL1, DivisorClass((2, -1)), "E", ["E"]) == 0  # nef class


def test_walk_blowup_ample():
    prof = walk_ray(BL1, DivisorClass((3, -1)), "C", ["E"])
    assert prof.nu == 0
    assert prof.mu == Fraction(3, 2)
    assert prof.radicand == 0
    assert [s.support for s in prof.segments] == [(), ("E",)]
    assert prof.segments[0].t_lo == 0 and prof.segments[0].t_hi == 1
    assert prof.segments[1].t_hi == Fraction(3, 2)
    assert prof.segments[1].coeffs["E"] == (Fraction(-1), Fraction(1))
    assert appearance_times(prof) == [("E", Fraction(1))]


def test_walk_negative_flag():
    prof = walk_ray(BL1, DivisorClass((1, 1)), "E", ["E"])
    assert prof.nu == 1
    assert prof.mu == 2
    assert len(prof.segments) == 1
    assert prof.segments[0].support == ()
    assert appearance_times(prof) == []


def test_walk_p2():
    for d in (1, 2, 5):
        prof = walk_ray(P2, DivisorClass((d,)), "H", [])
        assert prof.nu == 0 and prof.mu == d
        assert len(prof.segments) == 1


def test_walk_flag_as_class_resolves_declared():
    by_label = walk_ray(BL1, DivisorClass((3, -1)), "C", ["E"])
    by_class = walk_ray(BL1, DivisorClass((3, -1)), DivisorClass((2, -1)), ["E"])
    assert by_label.flag.label == by_class.flag.label == "C"
    assert by_label.mu == by_class.mu


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(lambda: corpus(seed=777001, count=220), id="corpus"),
        pytest.param(lambda: forest_corpus(seed=8, count=6, rho=8), id="rank8"),
    ],
)
def test_walk_of_a_bare_flag_is_the_walk_of_its_spec(cases):
    # a bare label or class walks as FlagSpec(model, flag, {}) does, down to
    # the chamber integers that profile equality leaves out
    cases = cases()
    walks = 0
    for case in cases:
        spec = FlagSpec(case.model, case.flag, {})
        bare = _outcome(case.model, case.divisor, case.flag, case.candidates)
        assert bare == _outcome(case.model, case.divisor, spec, case.candidates), case.name
        if not isinstance(bare[0], type):
            assert bare[0].flag == spec, case.name
            walks += 1
    assert walks == len(cases)


def test_walk_irrational_mu():
    # chain model; P_t = (4-5t, -2+2t, -1+t) has
    # P^2 = 20t^2 - 30t + 11 with roots 3/4 +- sqrt(5)/20, both below the
    # walls at t = 1, so the ray exits in a single chamber at an irrational mu
    m = SurfaceModel(
        3,
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [CurveRecord("C1", (0, 1, -1)), CurveRecord("C2", (0, 0, 1))],
        (3, -2, -1),
    )
    d = DivisorClass((4, -2, -1))
    c = DivisorClass((5, -2, -1))
    prof = walk_ray(m, d, c, ["C1", "C2"])
    assert prof.mu == QExt(Fraction(3, 4), Fraction(-1, 20), 5)
    assert prof.radicand == 5
    assert len(prof.segments) == 1 and prof.segments[0].support == ()
    # exact root of the quadratic
    dd, dc, cc = pair(m, d, d), pair(m, d, c), pair(m, c, c)
    assert dd - 2 * prof.mu * dc + prof.mu * prof.mu * cc == 0
    # and the conjugate root is larger, so this is the first exit
    other = QExt(Fraction(3, 4), Fraction(1, 20), 5)
    assert prof.mu < other


def test_walk_rejects_non_big():
    with pytest.raises(ModelError):
        walk_ray(BL1, DivisorClass((0, 1)), "C", ["E"])  # E itself: P = 0


def test_walk_rejects_the_negative_light_cone():
    # D = -(3H - E): P_nu = -3H has P^2 = 9 > 0 but pairs -6 with the witness
    with pytest.raises(ModelError, match="not big"):
        walk_ray(BL1, DivisorClass((-3, 1)), DivisorClass((-1, 0)), ["E"])


@pytest.mark.parametrize("call", [walk_ray, nu])
def test_unhashable_candidate_is_an_input_error(call):
    with pytest.raises(InputError, match="unknown curve label"):
        call(BL1, DivisorClass((3, -1)), "C", [["E"]])


_RAT = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _first_quadratic_root(p0sq: Fraction, cross: Fraction, p1sq: Fraction, t_cur):
    """Smallest root > t_cur of p0sq + 2*cross*t + p1sq*t^2, exactly, by
    trying both roots in Q(sqrt d); None when there is none."""
    if p1sq == 0:
        if cross == 0:
            return None
        root = Fraction(-p0sq, 2 * cross)
        return root if root > t_cur else None
    half_disc = cross * cross - p1sq * p0sq  # (b/2)^2 - a*c
    if half_disc < 0:
        return None
    sq = sqrt_fraction(half_disc)
    roots = sorted([(-cross - sq) / p1sq, (-cross + sq) / p1sq])
    return next((r for r in roots if r > t_cur), None)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_exit_decision_agrees_with_the_root(data):
    # the closed-form root in the walk's integers is "none" exactly when the
    # root in Q(sqrt(d)) is, compares with a wall T as "root <= T" exactly
    # when that root does, double roots and roots at T included, and is mu
    p0sq, cross, p1sq, t_cur = (data.draw(_RAT) for _ in range(4))
    if p1sq and data.draw(st.booleans()):
        p0sq = cross * cross / p1sq  # a double root at the vertex
    assume(p0sq + 2 * cross * t_cur + p1sq * t_cur * t_cur > 0)
    root = _first_quadratic_root(p0sq, cross, p1sq, t_cur)
    if isinstance(root, Fraction) and data.draw(st.booleans()):
        t_wall = root
    else:
        t_wall = t_cur + data.draw(_RAT.filter(lambda x: x > 0))
    # q = (P0 - 2*f0*t - fslope*t^2)/ew in the walk's integers
    ew = lcm(p0sq.denominator, cross.denominator, p1sq.denominator)
    p0, f0, fslope = (x.numerator for x in (p0sq * ew, -cross * ew, -p1sq * ew))
    end = _cone_exit(p0, f0, fslope, t_cur)
    assert (end is None) == (root is None)
    if root is not None:
        exits = _sign(t_wall.numerator, -t_wall.denominator, end) >= 0
        assert exits == (root <= t_wall)
        # a Fraction when disc is a square, else the integers (a, b, disc)
        # that _mu takes, disc no square
        assert (type(end) is Fraction) == (type(root) is Fraction)
        if type(end) is not Fraction:
            assert isqrt(end[2]) ** 2 != end[2]
        assert _mu(end, ew) == root


def test_walk_takes_one_root(monkeypatch):
    # the exit is decided in Q in every chamber; the root is taken once
    calls = []

    def counted(*args):
        calls.append(None)
        return _mu(*args)

    monkeypatch.setattr(raywalk, "_mu", counted)
    chambers = 0
    for case in corpus(seed=501, count=40) + forest_corpus(seed=8, count=6, rho=8):
        calls.clear()
        prof = walk_ray(case.model, case.divisor, case.flag, case.candidates)
        assert len(calls) == 1, case.name
        chambers += len(prof.segments)
    assert chambers > 46


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(lambda: corpus(seed=777001, count=220), id="corpus"),
        pytest.param(lambda: forest_corpus(seed=8, count=6, rho=8), id="rank8"),
        pytest.param(lambda: forest_corpus(seed=16, count=4, rho=16), id="rank16"),
        pytest.param(lambda: forest_corpus(seed=32, count=3, rho=32), id="rank32"),
    ],
)
def test_mu_is_the_first_root_of_the_last_chamber(cases):
    # P_0^2, P_0.p1 and p1^2 of the last chamber from class arithmetic; its
    # first root past the chamber start, found by trying both, is mu
    irrational = 0
    for case in cases():
        model = case.model
        prof = walk_ray(model, case.divisor, case.flag, case.candidates)
        last = prof.segments[-1]
        p0, p1 = _positive_part(model, prof, last)
        want = _first_quadratic_root(
            pair(model, p0, p0), pair(model, p0, p1), pair(model, p1, p1), last.t_lo
        )
        assert prof.mu == want, case.name
        assert prof.radicand == (want.d if isinstance(want, QExt) else 0), case.name
        irrational += isinstance(want, QExt)
    assert irrational


def test_walk_names_inertia_of_singular_support():
    # two curves with one class enter together: their Gram matrix is singular
    m = SurfaceModel(
        3,
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [CurveRecord("E1", (0, 1, 0)), CurveRecord("E1b", (0, 1, 0))],
        (3, -1, -1),
    )
    for _ in range(2):  # and again on the same model: nothing failed is kept
        with pytest.raises(ModelError) as err:
            walk_ray(m, DivisorClass((3, -1, -1)), DivisorClass((1, -1, 0)), ["E1", "E1b"])
        assert str(err.value) == "support ['E1', 'E1b'] is not negative definite (inertia (0, 1, 1))"


def test_walk_monotone_support_and_positivity_on_corpus():
    for case in corpus(seed=501, count=40):
        prof = walk_ray(case.model, case.divisor, case.flag, case.candidates)
        # contiguity and monotone supports
        assert prof.segments[0].t_lo == prof.nu
        assert prof.segments[-1].t_hi == prof.mu
        for a, b in zip(prof.segments, prof.segments[1:]):
            assert a.t_hi == b.t_lo
            assert set(a.support) <= set(b.support)
        # appearance times are the segment left endpoints, all rational
        for l, t in prof.appearance.items():
            assert isinstance(t, Fraction)
        # flag never in support
        for seg in prof.segments:
            assert prof.flag.label not in seg.support
        # the positive part built from the carried coefficients is orthogonal
        # to the support, and the carried flag pairings are its pairings
        for seg in prof.segments:
            p0, p1 = _positive_part(case.model, prof, seg)
            for l in seg.support:
                assert pair(case.model, p0, case.model.class_of(l)) == 0
                assert pair(case.model, p1, case.model.class_of(l)) == 0
            e, w, _, f0, fslope = seg.numerators
            assert Fraction(f0, e * w) == pair(case.model, p0, prof.flag.cls)
            assert Fraction(fslope, e * w) == pair(case.model, p1, prof.flag.cls)
            # a fresh solve on a ray whose pairings are taken here with `pair`
            d, f = prof.divisor, prof.flag.cls
            classes = {l: case.model.class_of(l) for l in seg.support}
            fresh_ray = _Ray(
                d_c=_over_lcm({l: pair(case.model, d, c) for l, c in classes.items()}),
                f_c=_over_lcm({l: pair(case.model, f, c) for l, c in classes.items()}),
                dd=pair(case.model, d, d),
                df=pair(case.model, d, f),
                ff=pair(case.model, f, f),
            )
            fresh = _segment_system(case.model, fresh_ray, list(seg.support))
            assert seg.coeffs == _solution(fresh_ray, fresh)
        # P^2 positive strictly inside, zero at mu
        p0, p1 = _positive_part(case.model, prof, prof.segments[-1])
        a = pair(case.model, p1, p1)
        b = pair(case.model, p0, p1)
        c = pair(case.model, p0, p0)
        assert c + 2 * b * prof.mu + a * prof.mu * prof.mu == 0
        for seg in prof.segments:
            p0, p1 = _positive_part(case.model, prof, seg)
            mid = (seg.t_lo + (seg.t_lo + 1)) / 2  # inside only if < t_hi
            ts = [seg.t_lo, mid] if mid < seg.t_hi else [seg.t_lo]
            for t in ts:
                val = (
                    pair(case.model, p0, p0)
                    + 2 * t * pair(case.model, p0, p1)
                    + t * t * pair(case.model, p1, p1)
                )
                assert val > 0


def _positive_part(model, prof, seg):
    """(P_0, p1) with P_t = P_0 + t*p1 = D - t*F - sum (a0_l + a1_l*t)*C_l,
    built from the segment's coefficients with class arithmetic."""
    p0, p1 = prof.divisor, -prof.flag.cls
    for l, (a0, a1) in seg.coeffs.items():
        c = model.class_of(l)
        p0, p1 = p0 - c.scale(a0), p1 - c.scale(a1)
    return p0, p1


def _over_lcm(values: dict) -> tuple[int, dict]:
    """Rationals as (den, {key: den*value}) over their least common denominator."""
    den = lcm(*(x.denominator for x in values.values()))
    return den, {k: x.numerator * (den // x.denominator) for k, x in values.items()}


def test_profile_keeps_the_decomposition_of_d():
    # the decomposition the walk starts from is the one a fresh call gives,
    # and its pairings are D.C_l for every candidate
    for case in corpus(seed=404, count=40):
        prof = walk_ray(case.model, case.divisor, case.flag, case.candidates)
        cands = list(case.candidates)
        if prof.flag.label is not None and prof.flag.label not in cands:
            cands.append(prof.flag.label)
        fresh = zariski_decompose(case.model, case.divisor, cands)
        kept = prof.decomposition
        assert kept.support == fresh.support, case.name
        assert kept.coeffs == fresh.coeffs, case.name
        assert kept.positive_part == fresh.positive_part, case.name
        den, nums = kept.scaled_pairings
        assert {l: Fraction(x, den) for l, x in nums.items()} == {
            l: pair(case.model, case.divisor, case.model.class_of(l)) for l in cands
        }, case.name
        flag_coeff = kept.coefficient(prof.flag.label) if prof.flag.label else 0
        assert prof.nu == flag_coeff, case.name


def test_slope_monotonicity_at_walls_on_corpus():
    # surviving curves never lose slope across a wall, and positive linkage
    # to a strictly accelerating curve propagates strictness
    checked = 0
    for case in corpus(seed=733, count=60):
        prof = walk_ray(case.model, case.divisor, case.flag, case.candidates)
        for a, b in zip(prof.segments, prof.segments[1:]):
            for l in a.support:
                s_old, s_new = a.coeffs[l][1], b.coeffs[l][1]
                assert s_new >= s_old
                checked += 1
            strict = {
                l for l in b.support
                if l not in a.support or b.coeffs[l][1] > a.coeffs[l][1]
            }
            for l in a.support:
                if l in strict:
                    continue
                linked = any(
                    pair(
                        case.model,
                        case.model.class_of(l),
                        case.model.class_of(other),
                    )
                    > 0
                    for other in strict
                )
                assert not linked, f"{case.name}: {l} linked but not strict"
    assert checked > 5


def test_nu_matches_initial_coefficient():
    for case in corpus(seed=88, count=30):
        got = nu(case.model, case.divisor, case.flag, case.candidates)
        assert got >= 0
        if case.ample_divisor:
            assert got == 0


def _coefficient(seg, label, t):
    """a0 + a1*t for a curve of the segment's support."""
    a0, a1 = seg.coeffs[label]
    return a0 + a1 * t


def test_coefficient_continuity_at_walls():
    for case in corpus(seed=4242, count=40):
        prof = walk_ray(case.model, case.divisor, case.flag, case.candidates)
        for a, b in zip(prof.segments, prof.segments[1:]):
            t = a.t_hi
            for l in a.support:
                assert _coefficient(a, l, t) == _coefficient(b, l, t)
            for l in b.support:
                if l not in a.support:
                    assert _coefficient(b, l, t) == 0


def _interior_point(seg) -> Fraction:
    """A rational t strictly inside the segment; an irrational mu is
    approached by halving toward t_lo."""
    if isinstance(seg.t_hi, Fraction):
        return (seg.t_lo + seg.t_hi) / 2
    t = seg.t_lo + 1
    while not t < seg.t_hi:
        t = (seg.t_lo + t) / 2
    return t


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(lambda: corpus(seed=2718, count=40), id="corpus"),
        pytest.param(lambda: forest_corpus(seed=8, count=12, rho=8), id="rank8"),
        pytest.param(lambda: forest_corpus(seed=16, count=6, rho=16), id="rank16"),
        pytest.param(lambda: forest_corpus(seed=32, count=3, rho=32), id="rank32"),
    ],
)
def test_segments_match_pointwise_zariski(cases):
    # at a rational interior point of every chamber, the decomposition of
    # D - t*F has the chamber's support and coefficients a0 + a1*t, and the
    # positive part built from vectors alone is orthogonal to the support
    # and nef on every candidate
    cases = cases()
    segments = 0
    for case in cases:
        model = case.model
        prof = walk_ray(model, case.divisor, case.flag, case.candidates)
        for seg in prof.segments:
            t = _interior_point(seg)
            assert seg.t_lo < t < seg.t_hi
            d_t = prof.divisor - prof.flag.cls.scale(t)
            dec = zariski_decompose(model, d_t, prof.candidates)
            want = {l: _coefficient(seg, l, t) for l in seg.support}
            assert dec.coeffs == want, case.name
            p_t = d_t
            for l, a in want.items():
                assert a > 0
                p_t = p_t - model.class_of(l).scale(a)
            assert dec.positive_part == p_t
            for l in prof.candidates:
                q = pair(model, p_t, model.class_of(l))
                assert q == 0 if l in want else q >= 0, (case.name, l)
            segments += 1
    assert segments > len(cases)


def test_walk_starts_at_nu_on_the_decomposition_of_d_less_the_flag():
    # D - nu*C = P_D + (N_D - nu*C), so the walk starts at nu from D's own
    # decomposition; the oracle runs the decomposition at nu the walk no
    # longer runs.  Every walk with nu > 0 of the corpora, and walks of
    # D + 2*C with the flag C, for each candidate C
    walks = []
    for case in (
        corpus(seed=777001, count=220)
        + forest_corpus(seed=8, count=6, rho=8)
        + forest_corpus(seed=16, count=4, rho=16)
    ):
        walks.append((case, case.divisor, case.flag))
        for l in case.candidates:
            walks.append((case, case.divisor + case.model.class_of(l).scale(2), l))
    walked = 0
    for case, divisor, flag in walks:
        model = case.model
        spec = FlagSpec(model, flag, {})
        cands = list(case.candidates)
        if spec.label is not None and spec.label not in cands:
            cands.append(spec.label)  # the walk decomposes against the flag curve too
        try:
            dec = zariski_decompose(model, divisor, cands)
        except NoksurfError:
            continue
        t_nu = dec.coefficient(spec.label) if spec.label is not None else 0
        if t_nu == 0:
            continue
        at_nu = zariski_decompose(model, divisor - spec.cls.scale(t_nu), cands)
        assert at_nu.support == tuple(l for l in dec.support if l != spec.label), case.name
        assert at_nu.positive_part == dec.positive_part, case.name
        try:
            prof = walk_ray(model, divisor, spec, case.candidates)
        except NoksurfError:
            continue
        first = prof.segments[0]
        assert (prof.nu, first.t_lo) == (t_nu, t_nu)
        # the support at nu comes first; curves entering at a wall at nu
        # follow it with coefficient 0 there
        assert first.support[: len(at_nu.support)] == at_nu.support, case.name
        assert {l: _coefficient(first, l, t_nu) for l in first.support} == {
            l: at_nu.coefficient(l) for l in first.support
        }, case.name
        walked += 1
    assert walked >= 40, walked


def _walks_from_nu(cases):
    """(model, D, flag, candidates) for each case, and for D + 2*C with the
    flag C for each candidate C, which starts at nu = 2 or more."""
    for case in cases:
        yield case.model, case.divisor, case.flag, case.candidates
        for l in case.candidates:
            yield case.model, case.divisor + case.model.class_of(l).scale(2), l, case.candidates


def test_a_walk_from_nu_decomposes_once_and_factors_only_an_irrational_mu(monkeypatch):
    # every walk with nu > 0 decomposes D once, hands _mu a triple only for
    # an irrational mu, with disc no square, and factors that radicand once
    decompositions, ends, radicands = [], [], []

    def recorded(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(raywalk, "zariski_decompose", recorded(decompositions, zariski_decompose))
    monkeypatch.setattr(raywalk, "_mu", recorded(ends, _mu))
    monkeypatch.setattr(qext, "squarefree_part", recorded(radicands, qext.squarefree_part))
    walked = irrational = square_disc = 0
    cases = (
        corpus(seed=777001, count=220)
        + forest_corpus(seed=8, count=6, rho=8)
        + forest_corpus(seed=16, count=4, rho=16)
    )
    for model, divisor, flag, candidates in _walks_from_nu(cases):
        model._divisor_sides.clear()  # D's decomposition is kept per model
        del decompositions[:], ends[:], radicands[:]
        prof = walk_ray(model, divisor, flag, candidates)
        if prof.nu == 0:
            continue
        assert len(decompositions) == 1
        ((end, _),) = ends
        if type(prof.mu) is QExt:
            assert isqrt(end[2]) ** 2 != end[2]
            assert len(radicands) == 1
            irrational += 1
        else:
            assert end == prof.mu and radicands == []
            square_disc += prof.segments[-1].numerators[4] != 0
        walked += 1
    counts = walked, irrational, square_disc
    assert walked >= 300 and irrational >= 100 and square_disc >= 100, counts


def _chain_walks():
    """Walks on the chain models of rank 2 to 12: D with each curve as the
    flag, and D + 2*C with the flag C."""
    for rho in range(2, 13):
        model, divisor = chain_model(rho)
        labels = list(model.labels())
        for l in labels:
            yield model, divisor, l, labels
            yield model, divisor + model.class_of(l).scale(2), l, labels


@pytest.mark.parametrize(
    "walks",
    [
        pytest.param(lambda: _walks_from_nu(corpus(seed=2718, count=220)), id="corpus"),
        pytest.param(lambda: _walks_from_nu(forest_corpus(seed=8, count=6, rho=8)), id="rank8"),
        pytest.param(lambda: _walks_from_nu(forest_corpus(seed=16, count=4, rho=16)), id="rank16"),
        pytest.param(_chain_walks, id="chain"),
    ],
)
def test_walk_matches_zariskis_construction(walks):
    # at nu, at a rational point inside every chamber and at every wall, the
    # negative part of D - t*F from Zariski's construction, over Fractions
    # and the raw Gram matrix, has every candidate's coefficient of the
    # walk's chamber, zeros included
    points = walls = from_nu = 0
    for model, divisor, flag, candidates in walks():
        prof = walk_ray(model, divisor, flag, candidates)
        from_nu += prof.nu > 0
        inside = set(prof.candidates)
        curves = {rec.label: rec.cls for rec in model.curves if rec.label in inside}
        first = prof.segments[0]
        checks = [(prof.nu, first)]
        for seg in prof.segments:
            checks.append((_interior_point(seg), seg))
            if seg is not first:
                checks.append((seg.t_lo, seg))
                walls += 1
        for t, seg in checks:
            d_t = [d - t * f for d, f in zip(prof.divisor.coords, prof.flag.cls.coords)]
            want = {l: _coefficient(seg, l, t) if l in seg.support else 0 for l in curves}
            assert zariski_negative_part(model.gram, curves, d_t) == want, (flag, t)
            points += 1
    assert points > 20 and walls > 0 and from_nu > 0, (points, walls, from_nu)


_WALK_CORPORA = [
    pytest.param(lambda: corpus(seed=2718, count=40), id="corpus"),
    pytest.param(lambda: forest_corpus(seed=8, count=6, rho=8), id="rank8"),
    pytest.param(lambda: forest_corpus(seed=16, count=4, rho=16), id="rank16"),
    pytest.param(lambda: forest_corpus(seed=32, count=3, rho=32), id="rank32"),
]


@pytest.mark.parametrize("cases", _WALK_CORPORA)
def test_integer_pairings_are_those_of_the_segment_vectors(cases, monkeypatch):
    # every outside pairing the walk decides with, an integer pair (Q0, Q1)
    # over s*w, is P_0.C_l and p1.C_l of the segment it returns
    seen = []

    def recorded(model, ray, entry_order, support, chamber):
        out = outside_pairings(model, ray, entry_order, support, chamber)
        seen.append((tuple(support), chamber[0] * ray.w, set(entry_order), out))
        return out

    outside_pairings = raywalk._outside_pairings
    monkeypatch.setattr(raywalk, "_outside_pairings", recorded)
    checked = 0
    for case in cases():
        model = case.model
        seen.clear()
        prof = walk_ray(model, case.divisor, case.flag, case.candidates)
        by_support = {support: (den, order, out) for support, den, order, out in seen}
        for seg in prof.segments:
            den, order, out = by_support[seg.support]
            assert {l for l, _, _ in out} == order - set(seg.support), case.name
            p0, p1 = _positive_part(model, prof, seg)
            for l, q0, q1 in out:
                c = model.class_of(l)
                assert Fraction(q0, den) == pair(model, p0, c), (case.name, l)
                assert Fraction(q1, den) == pair(model, p1, c), (case.name, l)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("cases", _WALK_CORPORA[:2])
def test_profile_carries_the_flag_pairings(cases):
    for case in cases():
        model = case.model
        prof = walk_ray(model, case.divisor, case.flag, case.candidates)
        f = prof.flag.cls
        assert prof.flag_square == pair(model, f, f), case.name
        others = [l for l in prof.candidates if l != prof.flag.label]
        assert set(prof.scaled_flag_pairings[1]) == set(others), case.name
        for l in others:
            assert prof.flag_pairing(l) == pair_curve(model, f, l), (case.name, l)


_SMALL = st.integers(min_value=-3, max_value=3)
_PAIRING = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_integer_decisions_agree_with_rational_evaluation(data):
    # a support of 1-4 curves (odd sizes have a negative determinant) with a
    # negative definite Gram matrix -(B*B^T + K), outside curves with random
    # products against it (the last may copy the first: a tie), and rational
    # D.C_l, F.C_l; the integer core is checked against Fraction/QExt sums
    n = data.draw(st.integers(1, 4), label="support size")
    k = data.draw(st.integers(1, 4), label="outside curves")
    support = [f"S{i}" for i in range(n)]
    outside = [f"O{i}" for i in range(k)]
    b = [[data.draw(_SMALL) for _ in range(n)] for _ in range(n)]
    gram = [
        [-sum(x * y for x, y in zip(b[i], b[j])) - (data.draw(st.integers(1, 3)) if i == j else 0)
         for j in range(n)]
        for i in range(n)
    ]
    gram = [[gram[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    cross = {(j, l): data.draw(_SMALL) for j in support for l in outside}
    d_c = {l: data.draw(_PAIRING) for l in support + outside}
    # F.C_l mostly positive off the support, so most pairings decrease
    f_c = {l: data.draw(_PAIRING) for l in support}
    f_c.update({l: data.draw(st.fractions(-1, 8, max_denominator=6)) for l in outside})
    if k > 1 and data.draw(st.booleans(), label="tie"):
        twin, first = outside[-1], outside[0]
        for j in support:
            cross[j, twin] = cross[j, first]
        d_c[twin], f_c[twin] = d_c[first], f_c[first]
    products = {l: {} for l in support + outside}
    for i, a in enumerate(support):
        for j, c in enumerate(support):
            if gram[i][j]:
                products[a][c] = gram[i][j]
        for l in outside:
            if cross[a, l]:
                products[a][l] = products[l][a] = cross[a, l]
    # the model tables the chamber solve reads: product rows, eliminations
    model = SimpleNamespace(_products=products, _eliminations={})
    zero = Fraction(0)
    ray = _Ray(_over_lcm(d_c), _over_lcm(f_c), zero, zero, zero)

    chamber = _segment_system(model, ray, support)
    s, nums = chamber
    assert s > 0
    a0, a1 = gauss_jordan(gram, [[d_c[l] for l in support], [-f_c[l] for l in support]])[1]
    e = s * ray.w
    assert [Fraction(nums[l][0], e) for l in support] == a0
    assert [Fraction(nums[l][1], e) for l in support] == a1
    want = {
        l: (
            d_c[l] - sum(a * cross[j, l] for j, a in zip(support, a0)),
            -f_c[l] - sum(a * cross[j, l] for j, a in zip(support, a1)),
        )
        for l in outside
    }
    got = _pairings(model, ray, outside, chamber)
    assert {l: (Fraction(q0, e), Fraction(q1, e)) for l, q0, q1 in got} == want

    def sign(x):
        return (x > 0) - (x < 0)

    # the sign at a rational t, which may be a wall time (a tie at zero)
    walls = {l: -q0 / q1 for l, (q0, q1) in want.items() if q1 < 0}
    where = data.draw(st.sampled_from(["at the first wall", "before it", "anywhere"]))
    if walls and where != "anywhere":
        t = min(walls.values()) - (0 if where == "at the first wall" else data.draw(_PAIRING.map(abs)))
    else:
        t = data.draw(_PAIRING)
    for l, q0, q1 in got:
        assert sign(_at(q0, q1, t)) == sign(want[l][0] + t * want[l][1])
    # the earliest wall, over the curves whose pairing is nonnegative at t
    # and not zero and decreasing there; any other curve is an InternalError
    ahead = [(l, q0, q1) for l, q0, q1 in got if q0 + t * q1 > 0 or (q0 + t * q1 == 0 and q1 >= 0)]
    if len(ahead) < len(got):
        with pytest.raises(InternalError, match="already negative at segment start"):
            _earliest_wall(got, t)
    wall = _earliest_wall(ahead, t)
    walls = [w for l, w in walls.items() if l in {l for l, _, _ in ahead}]
    earliest = min(walls, default=None)
    assert wall == earliest
    # a missed wall at a segment end past t: a rational one, or an irrational mu
    rad = data.draw(st.sampled_from([2, 3, 5, 7]))
    mu = t + QExt(data.draw(_PAIRING.map(abs)), data.draw(st.fractions(0, 2)), rad)
    end = mu if data.draw(st.booleans()) or earliest is None else earliest + data.draw(_PAIRING)
    assume(end > t)
    first = next((l for l, q0, q1 in ahead if want[l][0] + end * want[l][1] < 0), None)
    assert _missed_wall(ahead, end if type(end) is Fraction else _integer_root(end), wall) == first


def _integer_root(x: QExt):
    """x = p + q*sqrt(d) as the walk's integer root (a - sqrt(disc))/b:
    over a common denominator L, x = (P + Q*sqrt(d))/L, so a = -P, b = -L
    for Q > 0 and a = P, b = L for Q < 0, with disc = Q^2*d."""
    den = lcm(x.p.denominator, x.q.denominator)
    p, q = (c.numerator * (den // c.denominator) for c in (x.p, x.q))
    return (-p, -den, q * q * x.d) if q > 0 else (p, den, q * q * x.d)


def _nonsquare(n):
    return isqrt(n) ** 2 != n


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_sign_at_an_irrational_root_agrees_with_qext(data):
    # the sign of x0 + x1*mu at mu = (a - sqrt(disc))/b, decided by comparing
    # squares of integers, against the value in Q(sqrt d); the draws cover
    # u = x0*b + x1*a = 0, x1 = 0, both signs of b, and x0/x1 a rational
    # wall next to mu, where u^2 and x1^2*disc are closest
    disc = data.draw(st.integers(2, 10**12).filter(_nonsquare), label="disc")
    a = data.draw(st.integers(-(10**6), 10**6), label="a")
    b = data.draw(st.integers(-100, 100).filter(bool), label="b")
    mu = (a - sqrt_fraction(disc)) / b
    kind = data.draw(st.sampled_from(["any", "u = 0", "x1 = 0", "beside a wall"]))
    if kind == "u = 0":
        k = data.draw(st.integers(-50, 50).filter(bool))
        x0, x1 = a * k, -b * k
    elif kind == "x1 = 0":
        x0, x1 = data.draw(st.integers(-(10**6), 10**6)), 0
    elif kind == "beside a wall":
        # x0/x1 = -n/den, within a step or two of mu: isqrt(den^2*disc) is the
        # floor of den*sqrt(disc)
        den = data.draw(st.integers(1, 10**9), label="den")
        n = (den * a - isqrt(den * den * disc)) // b
        x0, x1 = -(n + data.draw(st.integers(-1, 1))), den
    else:
        x0, x1 = (data.draw(st.integers(-(10**9), 10**9)) for _ in range(2))
    value = x0 + x1 * mu
    assert _sign(x0, x1, (a, b, disc)) == (value > 0) - (value < 0)
    # the same root, written with the square-free radicand
    assert _sign(x0, x1, _integer_root(mu)) == _sign(x0, x1, (a, b, disc))


# -- walks on one model against cold walks ------------------------------------


def _fresh(model):
    return SurfaceModel(model.rank, model.gram, model.curves, model.ample_witness)


def _outcome(model, divisor, flag, candidates):
    """The profile of a walk with the integers it keeps, or its error."""
    try:
        p = walk_ray(model, divisor, flag, candidates)
    except NoksurfError as exc:
        return type(exc), str(exc)
    dec = p.decomposition
    return (
        p,
        [s.numerators for s in p.segments],
        p.scaled_flag_pairings,
        (dec.coeffs, dec.positive_part, dec.scaled_pairings),
    )


def _flags(case):
    """The case's flag, every declared curve and the ample witness."""
    return [case.flag, *case.model.labels(), DivisorClass(case.model.ample_witness)]


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(lambda: corpus(seed=777001, count=220), id="corpus"),
        pytest.param(lambda: forest_corpus(seed=8, count=6, rho=8), id="rank8"),
        pytest.param(lambda: forest_corpus(seed=16, count=4, rho=16), id="rank16"),
    ],
)
def test_walks_on_one_model_equal_cold_walks(cases):
    # a sequence of walks shares the model's tables (eliminated supports and
    # D's side of the ray); each equals a walk on a freshly built model
    cases = cases()
    walks = 0
    for case in cases:
        model = case.model
        for flag in _flags(case):
            warm = _outcome(model, case.divisor, flag, case.candidates)
            assert warm == _outcome(_fresh(model), case.divisor, flag, case.candidates), case.name
            walks += not isinstance(warm[0], type)
    assert walks > 4 * len(cases)


def _steps(model, divisor, flag, candidates):
    """The chamber steps of a walk, with the prologue's decomposition and
    ray as the integers they keep, and the error that ended them, if any."""
    out, error = [], None
    try:
        out.extend(_chamber_steps(model, divisor, flag, candidates))
    except NoksurfError as exc:
        error = type(exc), str(exc)
    if out:
        *head, dec, t_nu, volume, ray, support = out[0]
        kept = (dec, dec.coeffs, dec.positive_part, dec.scaled_pairings)
        out[0] = (*head, kept, t_nu, volume, vars(ray), support)
    return out, error


def test_flag_search_walks_equal_cold_walks(monkeypatch):
    # every walk of a full scan on the chain models, ranks 3-7: the chamber
    # steps of each replay and the profile of each realization walk, against
    # the same call on a fresh model
    calls = []

    def replayed(model, divisor, flag, candidates):
        calls.append((_steps, model, divisor, flag, candidates, _steps(model, divisor, flag, candidates)))
        return _chamber_steps(model, divisor, flag, candidates)

    def walked(model, divisor, flag, candidates):
        out = _outcome(model, divisor, flag, candidates)
        calls.append((_outcome, model, divisor, flag, candidates, out))
        # a walk that failed is run again to raise its own exception
        return walk_ray(model, divisor, flag, candidates) if isinstance(out[0], type) else out[0]

    monkeypatch.setattr(flagbuilder, "_chamber_steps", replayed)
    monkeypatch.setattr(flagbuilder, "walk_ray", walked)
    for rho in range(3, 8):
        model, divisor = chain_model(rho)
        flagbuilder.scan_vertex_counts(model, divisor, list(model.labels()))
    assert len(calls) > 200
    assert {call[0] for call in calls} == {_steps, _outcome}
    for outcome, model, divisor, flag, candidates, warm in calls:
        assert warm == outcome(_fresh(model), divisor, flag, candidates)
