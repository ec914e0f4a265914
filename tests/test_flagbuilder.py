import sys
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest

from noksurf import (
    CurveRecord,
    DivisorClass,
    FlagSpec,
    InputError,
    ModelError,
    NoksurfError,
    SurfaceModel,
    alpha_beta,
    build_polygon,
    is_model_ample,
    mc,
    mv,
    pair,
    vertex_bound_check,
    walk_ray,
    zariski_decompose,
)
from noksurf import cli, flagbuilder, lattice, linalg, raywalk, zariski
from noksurf.cli import main
from noksurf.lattice import as_divisor, curve_pairings, pair_curve
from noksurf.flagbuilder import (
    OrderedFlagCertificate,
    find_ordered_ample_class,
    realize_vertex_count,
    scan_vertex_counts,
)

from helpers import chain_model, story_matches, zariski_negative_part

BL1 = SurfaceModel(2, [[1, 0], [0, -1]], [CurveRecord("E", (0, 1))], (2, -1))
D_BL1 = DivisorClass((3, -1))

CHAIN3 = SurfaceModel(
    3,
    [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
    [CurveRecord("C1", (0, 1, -1)), CurveRecord("C2", (0, 0, 1))],
    (3, -2, -1),
)
D_CHAIN3 = DivisorClass((4, -2, -1))

CHAIN4 = SurfaceModel(
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
D_CHAIN4 = DivisorClass((5, -3, -2, -1))
CASES = Path(__file__).resolve().parent.parent / "cases"


def _verify_certificate(model, divisor, cert: OrderedFlagCertificate, config):
    """Independent replay: the walk must reproduce the certificate exactly."""
    assert is_model_ample(model, cert.flag_class)
    profile = walk_ray(model, divisor, cert.flag_class, model.labels())
    assert dict(cert.appearance) == profile.appearance
    assert cert.mu == profile.mu
    times = [profile.appearance[l] for l in config]
    assert all(t > 0 for t in times)
    assert all(a < b for a, b in zip(times, times[1:]))
    if times:
        assert times[-1] < profile.mu
    assert set(profile.final_support()) == set(config)


def test_single_curve_certificate():
    cert = find_ordered_ample_class(BL1, D_BL1, ["E"])
    assert cert.flag_class == DivisorClass((3, -2))
    assert cert.coefficients == {"E": 1}
    assert cert.appearance == (("E", Fraction(1, 2)),)
    assert cert.mu == 1
    _verify_certificate(BL1, D_BL1, cert, ["E"])


def test_empty_config_returns_divisor():
    cert = find_ordered_ample_class(CHAIN3, D_CHAIN3, [])
    assert cert.flag_class == D_CHAIN3
    assert cert.appearance == ()
    assert cert.mu == 1


def test_ordered_chain_certificate():
    cert = find_ordered_ample_class(CHAIN3, D_CHAIN3, ["C1", "C2"])
    _verify_certificate(CHAIN3, D_CHAIN3, cert, ["C1", "C2"])
    # and with the opposite order
    cert2 = find_ordered_ample_class(CHAIN3, D_CHAIN3, ["C2", "C1"])
    _verify_certificate(CHAIN3, D_CHAIN3, cert2, ["C2", "C1"])


def test_independent_certificate():
    cert = find_ordered_ample_class(CHAIN4, D_CHAIN4, ["C1"], want_independent=True)
    assert cert.independent
    _verify_certificate(CHAIN4, D_CHAIN4, cert, ["C1"])
    from noksurf.linalg import in_span

    assert not in_span(
        [list(D_CHAIN4.coords), list(CHAIN4.class_of("C1").coords)],
        list(cert.flag_class.coords),
    )


def test_independent_requires_room():
    with pytest.raises(InputError):
        find_ordered_ample_class(CHAIN3, D_CHAIN3, ["C1", "C2"], want_independent=True)


def test_rejects_non_ample_divisor():
    with pytest.raises(InputError):
        find_ordered_ample_class(CHAIN3, DivisorClass((4, -1, -1)), ["C1"])


def test_realize_all_counts_bl1():
    for v in (3, 4, 5):
        r = realize_vertex_count(BL1, D_BL1, ["E"], v)
        assert len(r.polygon.vertices) == v
        _verify_certificate(BL1, D_BL1, r.certificate, list(r.config))
        # each config curve is met at least twice by the scaled flag
        for l in r.config:
            assert pair(BL1, r.profile.flag.cls, BL1.class_of(l)) >= 2
    with pytest.raises(InputError):
        realize_vertex_count(BL1, D_BL1, ["E"], 6)
    with pytest.raises(InputError):
        realize_vertex_count(BL1, D_BL1, ["E"], 2)


def test_realize_respects_master_order_validation():
    m = SurfaceModel(
        3,
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [CurveRecord("C1", (0, 1, -1)), CurveRecord("C2", (0, 0, 1))],
        (3, -2, -1),
    )
    # C2-first ordering breaks no prefix-connectivity (mc = 2 needs C1+C2
    # connected at step 2, which holds for any order of this chain), so both
    # orders are accepted; a disconnected pair with mc=1 is fine in any order
    realize_vertex_count(m, DivisorClass((4, -2, -1)), ["C2", "C1"], 3)


def test_scan_chain_rho3():
    results = scan_vertex_counts(CHAIN3, D_CHAIN3, ["C1", "C2"])
    assert [r.target for r in results] == list(range(3, 8))
    for r in results:
        assert len(r.polygon.vertices) == r.target
        _verify_certificate(CHAIN3, D_CHAIN3, r.certificate, list(r.config))
        flag = r.profile.flag
        spec = FlagSpec(CHAIN3, flag.cls, dict(flag.local_mult))
        profile = walk_ray(CHAIN3, D_CHAIN3, spec, CHAIN3.labels())
        poly = build_polygon(*alpha_beta(CHAIN3, profile))
        assert len(poly.vertices) == r.target
        vertex_bound_check(CHAIN3, poly, profile)
    assert max(r.target for r in results) == 2 * CHAIN3.rank + 1 == mv(
        CHAIN3, ["C1", "C2"]
    )


def test_scan_chain_rho4():
    results = scan_vertex_counts(CHAIN4, D_CHAIN4, ["C1", "C2", "C3"])
    assert [r.target for r in results] == list(range(3, 10))
    for r in results:
        assert len(r.polygon.vertices) == r.target
        _verify_certificate(CHAIN4, D_CHAIN4, r.certificate, list(r.config))


def test_scaling_invariance_of_vertex_count():
    r = realize_vertex_count(BL1, D_BL1, ["E"], 5)
    flag = r.profile.flag
    for m in (2, 3):
        spec_m = FlagSpec(BL1, flag.cls.scale(m), dict(flag.local_mult))
        profile = walk_ray(BL1, D_BL1, spec_m, BL1.labels())
        poly = build_polygon(*alpha_beta(BL1, profile))
        assert len(poly.vertices) == len(r.polygon.vertices)
        # the time axis contracts by 1/m
        assert profile.mu * m == r.profile.mu


def _decomposing_probe(model, divisor, flag_class, config, prev_times):
    """The probe without certificates: one full decomposition of D - s*A at
    0, at each midpoint of consecutive times and halfway from the last time
    to 1, whose support must be the curves of `config` already crossed.  The
    probe itself skips 0, where every nef D passes, as each D here is."""
    samples = [Fraction(0)] + [(a + b) / 2 for a, b in zip(prev_times, prev_times[1:])]
    if prev_times:
        samples.append((prev_times[-1] + 1) / 2)
    for s in samples:
        dec = zariski_decompose(model, divisor - flag_class.scale(s), model.labels())
        if set(dec.support) != {l for l, t in zip(config, prev_times) if t <= s}:
            return False
    return True


def _pairings(model, cls):
    """(den, {l: den*cls.C_l}, den^2*cls^2) over every declared curve, as the
    search carries the pairings of a class."""
    den, nums = curve_pairings(model, cls, model._index)
    return den, nums, (pair(model, cls, cls) * den * den).numerator


def _recorded_searches(monkeypatch, run):
    """Run `run()` with every flag search recorded: one [model, divisor,
    certificate, trials, probes] per search, with `trials` the (base, label,
    guess, pairings, ample) of each `_trial` call and `probes` the (args,
    outcome) of each `_probe` call, in order."""
    search, trial, probe, searches = (
        flagbuilder.find_ordered_ample_class, flagbuilder._trial, flagbuilder._probe, []
    )

    def searching(model, divisor, *args, **kwargs):
        searches.append([model, as_divisor(divisor, model.rank), None, [], []])
        searches[-1][2] = search(model, divisor, *args, **kwargs)
        return searches[-1][2]

    def trying(base, products, label, guess):
        got = trial(base, products, label, guess)
        searches[-1][3].append((base, label, guess, *got))
        return got

    def probing(*args):
        got = probe(*args)
        searches[-1][4].append((args, got))
        return got

    for mod in (flagbuilder, cli):
        monkeypatch.setattr(mod, "find_ordered_ample_class", searching)
    monkeypatch.setattr(flagbuilder, "_trial", trying)
    monkeypatch.setattr(flagbuilder, "_probe", probing)
    run()
    monkeypatch.undo()
    return searches


def _base_classes(model, divisor, certificate):
    """{label: the class a search's step subtracts a multiple of the label
    from}: D less the certified multiples of the curves before it."""
    bases, cls = {}, divisor
    for label, g in certificate.coefficients.items():
        bases[label] = cls
        cls = lattice.subtract_curves(model, cls, [(label, g.numerator)], g.denominator)
    return bases


def _built(model, base_class, label, guess):
    return lattice.subtract_curves(model, base_class, [(label, guess.numerator)], guess.denominator)


def test_trial_pairings_match_the_class_the_search_builds(monkeypatch, capsys):
    # a trial is decided from its base's pairings and built only when the
    # probe accepts it; its pairings, square and ample verdict must be those
    # of the class it stands for.  Each step is also tried at one, two and
    # four times its bound, past which no multiple is ample, so that both
    # verdicts occur; on BL1 the square alone decides past the bound
    def run():
        scan_vertex_counts(BL1, D_BL1, ["E"])
        for rho in range(3, 8):
            model, divisor = chain_model(rho)
            scan_vertex_counts(model, divisor, list(model.labels()))
        assert main(["flag-search", str(CASES / "flag_search_chain.json")]) == 0

    verdicts = {True: 0, False: 0, "by the square": 0}
    for model, divisor, certificate, trials, _ in _recorded_searches(monkeypatch, run):
        bases = _base_classes(model, divisor, certificate)
        steps = {}
        for base, label, guess, *_ in trials:
            # each step starts at half the bound, from the pairings of its base
            steps.setdefault(label, (base, guess))
            assert base == _pairings(model, bases[label])
        for label, (base, first) in steps.items():
            products = lattice.curve_products(model, label)
            for guess in (2 * first, 4 * first, 8 * first):
                trials.append((base, label, guess, *flagbuilder._trial(base, products, label, guess)))
        for base, label, guess, (den, nums, sq), ample in trials:
            cls = _built(model, bases[label], label, guess)
            want_den, want = curve_pairings(model, cls, model._index)
            assert {l: Fraction(x, den) for l, x in nums.items()} == {
                l: Fraction(x, want_den) for l, x in want.items()
            }
            assert Fraction(sq, den * den) == pair(model, cls, cls)
            assert ample == is_model_ample(model, cls)
            verdicts[ample] += 1
            verdicts["by the square"] += not ample and min(nums.values()) > 0
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts
    assert verdicts["by the square"] > 0, verdicts


def test_probe_certificate_matches_decompositions(monkeypatch, capsys):
    # _probe reads D and the trial only through their pairings, so the
    # decomposing oracle takes D from the search, the trial's class from the
    # search's base and guess, and the wall times from the base's walk
    def run():
        scan_vertex_counts(CHAIN4, D_CHAIN4, ["C1", "C2", "C3"])
        search = flagbuilder.find_ordered_ample_class  # the recorded binding
        search(CHAIN4, D_CHAIN4, ["C3", "C2"])
        search(CHAIN3, D_CHAIN3.scale(Fraction(1, 2)), ["C2", "C1"])
        search(CHAIN4, D_CHAIN4, ["C2", "C1"], True)
        assert main(["flag-search", str(CASES / "flag_search_chain.json")]) == 0
        assert main(["scan-vertex-counts", str(CASES / "scan_chain3.json")]) == 0

    calls = []
    for model, d, certificate, trials, probes in _recorded_searches(monkeypatch, run):
        config = list(certificate.coefficients)
        bases = _base_classes(model, d, certificate)
        for args, _ in probes:
            _, label, guess, *_ = next(t for t in trials if t[3] is args[1])
            j = config.index(label)
            walked = walk_ray(model, d, bases[label], model.labels()).appearance if j else {}
            times = [walked[l] for l in config[:j]]
            calls.append((d, args, _built(model, bases[label], label, guess), config[: j + 1], times))
    # samples on E's wall: at s = 2/3, (D - s*A).E = 0 and E, expected,
    # solves to coefficient 0; at s = 0, H.E = 0 with E outside the support
    for d, a, times, samples in [
        (D_BL1, DivisorClass((2, Fraction(-3, 2))), [Fraction(1, 3)], [(Fraction(2, 3), ["E"])]),
        (DivisorClass((1, 0)), D_BL1, [], []),
    ]:
        args = (BL1, _pairings(BL1, a), samples, _pairings(BL1, d))
        calls.append((d, args, a, ["E"], times))

    # every binding of zariski_decompose in the package, counted; the
    # oracle calls this module's own binding
    decompose, decomposed = zariski.zariski_decompose, []

    def counted(*args):
        decomposed.append(None)
        return decompose(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("noksurf"):
            for key, val in list(vars(mod).items()):
                if val is decompose:
                    monkeypatch.setattr(mod, key, counted)
    outcomes, sampled = set(), 0
    for d, args, flag_class, config, prev_times in calls:
        decomposed.clear()
        got = flagbuilder._probe(*args)
        # the certificate alone decides, whatever the outcome
        assert not decomposed, args
        assert got == _decomposing_probe(args[0], d, flag_class, config, prev_times), args
        outcomes.add(got)
        if got:
            # Zariski's construction over the raw Gram matrix, with no model
            # table and no solve_support, finds each sample's support
            model = args[0]
            curves = {rec.label: rec.cls for rec in model.curves}
            for s, expect in args[2]:
                d_s = [x - s * a for x, a in zip(d.coords, flag_class.coords)]
                negative = zariski_negative_part(model.gram, curves, d_s)
                assert {l for l, x in negative.items() if x} == set(expect), (args, s)
                sampled += 1
    assert outcomes == {True, False}
    assert sampled >= 10, sampled


def _scale_by_search(model, certificate, config):
    """The multiple as `_scale_for_flag` searched for it before its closed
    form: den, 2*den, ... until the class meets every configuration curve
    at least twice."""
    cls = certificate.flag_class
    den = lcm(*[x.denominator for x in cls.coords])
    m = den
    while not all(pair_curve(model, cls.scale(m), l) >= 2 for l in config):
        m += den
    return m, cls.scale(m)


def test_scale_for_flag_matches_the_search_on_full_chain_scans():
    realizations = 0
    for rho in range(3, 8):
        model, divisor = chain_model(rho)
        master = list(model.labels())
        prefix_mv = [mv(model, master[:j]) for j in range(len(master) + 1)]
        for r in scan_vertex_counts(model, divisor, master):
            got = flagbuilder._scale_for_flag(model, r.certificate, r.config)
            assert got == (r.scale, r.profile.flag.cls)
            assert got == _scale_by_search(model, r.certificate, r.config)
            # none of these needs the doubled multiple
            assert r.scale == lcm(*[x.denominator for x in r.certificate.flag_class])
            # the rule: the prefix with invariant v and the flag point on its
            # first curve, else the prefix with invariant v + 1 and the point
            # moved off it, onto its second curve when two of its curves meet
            if r.target in prefix_mv:
                j = prefix_mv.index(r.target)
                want = ("first-curve", {master[0]: 1}) if j else ("generic-point", {})
                independent = j < rho - 1
            else:
                j = prefix_mv.index(r.target + 1)
                meet = mc(model, master[:j]) > 1
                want = ("second-curve", {master[1]: 1}) if meet else ("generic-point", {})
                independent = 0 < j < rho - 1
            assert (r.placement, r.profile.flag.local_mult) == want
            assert r.certificate.independent == independent
            assert len(r.config) == j
            realizations += 1
    assert realizations == 45


def _upper_bound_by_pairing(model, base, label):
    """_upper_bound_positive_range with the curve's class paired with every
    declared curve."""
    bd, bn = curve_pairings(model, base, model._index)
    cd, cn = curve_pairings(model, DivisorClass(model.curve(label).cls), model._index)
    bounds = [Fraction(bn[l] * cd, bd * x) for l, x in cn.items() if x > 0]
    bsq = pair(model, base, base)
    cross = Fraction(bn[label], bd)
    csq = Fraction(cn[label], cd)
    if csq < 0:
        disc = cross * cross - csq * bsq
        n, d = disc.numerator, disc.denominator
        r = isqrt(n * d)
        bounds.append((Fraction(r if r * r == n * d else r + 1, d) - cross) / (-csq))
    return min(bounds) if bounds else Fraction(1)


@pytest.mark.parametrize("rho", range(3, 8))
def test_upper_bound_positive_range_matches_the_pairing_route(rho):
    model, divisor = chain_model(rho)
    labels = model.labels()
    first = DivisorClass(model.curve(labels[0]).cls)
    for base in (divisor, DivisorClass(model.ample_witness), divisor.scale(2) - first):
        for label in labels:
            got = flagbuilder._upper_bound_positive_range(model, _pairings(model, base), label)
            assert got == _upper_bound_by_pairing(model, base, label)
            assert type(got) is Fraction


@pytest.mark.parametrize(
    "coords,scale",
    [((2, -1), 2), ((1, Fraction(-1, 2)), 4), ((3, -2), 1), ((3, Fraction(-4, 3)), 3)],
)
def test_scale_for_flag_doubles_when_a_curve_is_met_once(coords, scale):
    # A.E is 1 for (2, -1), 1/2 for (1, -1/2), 2 for (3, -2), 4/3 for (3, -4/3)
    cert = SimpleNamespace(flag_class=DivisorClass(coords))
    got = flagbuilder._scale_for_flag(BL1, cert, ["E"])
    assert got[0] == scale
    assert got == _scale_by_search(BL1, cert, ["E"])
    assert got[1] == DivisorClass(coords).scale(scale)


@pytest.mark.parametrize("rho,independent", [(5, False), (6, False), (7, True)])
def test_search_decomposes_d_once_and_eliminates_each_support_once(monkeypatch, rho, independent):
    # what the trials share is computed once per model: D's decomposition,
    # and the certified elimination of every support the probes and walks
    # solve on; no inertia is computed, since no support fails
    model, divisor = chain_model(rho)
    config = list(model.labels())[: rho - 2 if independent else None]
    decomposed, grams, inertias = [], [], []
    decompose, gram, inertia = raywalk.zariski_decompose, lattice.gram_matrix, linalg.inertia

    def counted_decompose(m, d, cands):
        decomposed.append(d)
        return decompose(m, d, cands)

    def counted_gram(m, labels):
        grams.append(tuple(labels))
        return gram(m, labels)

    def counted_inertia(q):
        inertias.append(q)
        return inertia(q)

    monkeypatch.setattr(raywalk, "zariski_decompose", counted_decompose)
    monkeypatch.setattr(lattice, "gram_matrix", counted_gram)
    monkeypatch.setattr(linalg, "inertia", counted_inertia)
    cert = find_ordered_ample_class(model, divisor, config, want_independent=independent)
    assert cert.independent == independent
    assert decomposed == [divisor]
    assert len(grams) == len(set(grams)) == len(model._eliminations)
    assert set(grams) >= {tuple(config)}
    assert inertias == []


def _replayed_trials(monkeypatch):
    """(model, divisor, flag class, config) of every replay of the full chain
    scans at ranks 3-7 and of the flag search in cases/flag_search_chain.json."""
    replay, trials = flagbuilder._walk_matches, []

    def recorded(model, divisor, flag_class, config):
        trials.append((model, divisor, flag_class, list(config)))
        return replay(model, divisor, flag_class, config)

    monkeypatch.setattr(flagbuilder, "_walk_matches", recorded)
    for rho in range(3, 8):
        model, divisor = chain_model(rho)
        scan_vertex_counts(model, divisor, list(model.labels()))
    assert main(["flag-search", str(CASES / "flag_search_chain.json")]) == 0
    monkeypatch.undo()
    return trials


def test_replay_accepts_exactly_the_stories_the_profile_oracle_accepts(monkeypatch, capsys):
    # the replay decides the search's story from the chamber steps in
    # integers; the oracle reads it off the profile walk_ray builds.  Each
    # trial is also walked from D + 2*C1, where C1 is in the negative part at
    # t = 0, and each walk is asked for the trial's configuration, its
    # reverse and the order the walk saw, so that every rejection is reached
    trials = []
    for model, divisor, flag_class, config in _replayed_trials(monkeypatch):
        shifted = divisor + model.class_of(model.labels()[0]).scale(2)
        trials += [(model, divisor, flag_class, config), (model, shifted, flag_class, config)]
    # classes whose walks raise: not big along the ray, zero, of the wrong rank
    for rho in range(3, 8):
        model, divisor = chain_model(rho)
        config = list(model.labels())
        for flag_class in [
            DivisorClass([-x for x in model.ample_witness]),
            DivisorClass([-x for x in divisor.coords]),
            DivisorClass([0] * rho),
            DivisorClass([1] * (rho + 1)),
        ]:
            trials.append((model, divisor, flag_class, config))
    verdicts = {"accepted": 0, "rejected": 0, "raised": 0}
    for model, divisor, flag_class, config in trials:
        try:
            profile = walk_ray(model, divisor, flag_class, model.labels())
        except NoksurfError as exc:
            verdicts["raised"] += 1
            want = type(exc), str(exc)
            with pytest.raises(NoksurfError) as steps_error:
                list(raywalk._chamber_steps(model, divisor, flag_class, model.labels()))
            assert (type(steps_error.value), str(steps_error.value)) == want
            if isinstance(exc, (InputError, ModelError)):
                assert flagbuilder._walk_matches(model, divisor, flag_class, config) is None
            else:
                with pytest.raises(NoksurfError) as replay_error:
                    flagbuilder._walk_matches(model, divisor, flag_class, config)
                assert (type(replay_error.value), str(replay_error.value)) == want
            continue
        seen = [l for l, _ in raywalk.appearance_times(profile)]
        for story in (config, config[::-1], seen):
            got = flagbuilder._walk_matches(model, divisor, flag_class, story)
            if story_matches(profile, story):
                verdicts["accepted"] += 1
                # the replay hands back its exit, and the search takes mu once
                appearance, last_exit = got
                assert (appearance, raywalk._mu(*last_exit)) == (profile.appearance, profile.mu)
            else:
                verdicts["rejected"] += 1
                assert got is None
    assert verdicts["accepted"] > 300 and verdicts["rejected"] > 600 and verdicts["raised"] >= 20, verdicts
