import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest

from noksurf import (
    CurveRecord,
    DivisorClass,
    FlagSpec,
    InputError,
    SurfaceModel,
    alpha_beta,
    build_polygon,
    is_model_ample,
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

from helpers import chain_model

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


def test_probe_certificate_matches_decompositions(monkeypatch, capsys):
    # _probe reads D only through its pairings, so the divisor for the
    # decomposing oracle is taken from the search that runs the probe
    search, probe, divisors, calls = flagbuilder.find_ordered_ample_class, flagbuilder._probe, [], []

    def searching(model, divisor, *args, **kwargs):
        divisors.append(as_divisor(divisor, model.rank))
        return search(model, divisor, *args, **kwargs)

    def recording(*args):
        calls.append((divisors[-1], args))
        return probe(*args)

    for mod in (flagbuilder, cli):
        monkeypatch.setattr(mod, "find_ordered_ample_class", searching)
    monkeypatch.setattr(flagbuilder, "_probe", recording)
    scan_vertex_counts(CHAIN4, D_CHAIN4, ["C1", "C2", "C3"])
    searching(CHAIN4, D_CHAIN4, ["C3", "C2"])
    searching(CHAIN3, D_CHAIN3.scale(Fraction(1, 2)), ["C2", "C1"])
    searching(CHAIN4, D_CHAIN4, ["C2", "C1"], True)
    cases = Path(__file__).resolve().parent.parent / "cases"
    assert main(["flag-search", str(cases / "flag_search_chain.json")]) == 0
    assert main(["scan-vertex-counts", str(cases / "scan_chain3.json")]) == 0
    monkeypatch.undo()
    # samples on E's wall: at s = 2/3, (D - s*A).E = 0 and E, expected,
    # solves to coefficient 0; at s = 0, H.E = 0 with E outside the support
    for d, a, times in [
        (D_BL1, DivisorClass((2, Fraction(-3, 2))), [Fraction(1, 3)]),
        (DivisorClass((1, 0)), D_BL1, []),
    ]:
        calls.append((d, (BL1, a, ["E"], times, curve_pairings(BL1, d, ["E"]))))

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
    outcomes = set()
    for d, args in calls:
        decomposed.clear()
        got = probe(*args)
        # the certificate alone decides, whatever the outcome
        assert not decomposed, args
        model, flag_class, config, prev_times, _ = args
        assert got == _decomposing_probe(model, d, flag_class, config, prev_times), args
        outcomes.add(got)
    assert outcomes == {True, False}


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
        for r in scan_vertex_counts(model, divisor, master):
            got = flagbuilder._scale_for_flag(model, r.certificate, r.config)
            assert got == (r.scale, r.profile.flag.cls)
            assert got == _scale_by_search(model, r.certificate, r.config)
            # none of these needs the doubled multiple
            assert r.scale == lcm(*[x.denominator for x in r.certificate.flag_class])
            realizations += 1
    assert realizations == 45


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
