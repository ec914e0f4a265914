import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import brute_halfplane_vertices, fan_corpus, shoelace2
from noksurf import DegenerateInput, InputError, cli, pair, toric
from noksurf.cli import main
from noksurf.linalg import solve, solve_many
from noksurf.toric import (
    ToricDivisor,
    ToricFan,
    combinatorial_edge_lengths,
    crosscheck,
    fan_to_model,
    monomial_valuation,
    newton_polygon,
    self_intersections,
)

P2 = ToricFan([(1, 0), (0, 1), (-1, -1)])
F0 = ToricFan([(1, 0), (0, 1), (-1, 0), (0, -1)])
F1 = ToricFan([(1, 0), (0, 1), (-1, 1), (0, -1)])
F2 = ToricFan([(1, 0), (0, 1), (-1, 2), (0, -1)])
DP6 = ToricFan([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])

AMPLE = {
    "P2": (P2, [(0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 1, 1)]),
    "F0": (F0, [(0, 0, 1, 1), (1, 0, 2, 1)]),
    "F1": (F1, [(0, 0, 1, 2), (0, 0, 2, 3)]),
    "F2": (F2, [(0, 0, 1, 1), (1, 0, 2, 1)]),
    "DP6": (DP6, [(1, 1, 1, 1, 1, 1), (2, 2, 1, 2, 2, 1)]),
}


def test_fan_validation():
    with pytest.raises(InputError):
        ToricFan([(1, 0), (0, 1)])  # too few
    with pytest.raises(InputError):
        ToricFan([(2, 0), (0, 1), (-1, -1)])  # imprimitive
    with pytest.raises(InputError):
        ToricFan([(1, 0), (0, 1), (-1, -2)])  # last step not unimodular
    with pytest.raises(InputError):
        ToricFan([(1, 0), (0, -1), (-1, 0), (0, 1)])  # clockwise


@pytest.mark.parametrize(
    "rays",
    [
        [(1.5, 0), (0, 1), (-1, -1)],
        [(True, 0), (0, 1), (-1, -1)],
        [(1, 0), (0, "1"), (-1, -1)],
        [(1, 0), (0, 1), (-1, Fraction(-1))],
    ],
)
def test_fan_rejects_non_integer_rays(rays):
    with pytest.raises(InputError, match="must have integer coordinates$"):
        ToricFan(rays)


@pytest.mark.parametrize("coeffs", [[1.9, 1, 1], [1, True, 1], [0, "1", 0], [0, 0, Fraction(1)]])
def test_toric_divisor_rejects_non_integers(coeffs):
    with pytest.raises(InputError, match="^toric divisor coefficients must be integers$"):
        ToricDivisor(coeffs)


@pytest.mark.parametrize(
    "rays",
    [
        [(1, 0), (10**10, 1), (-1, 0), (0, -1)],
        [(-1, 0), (-(10**10), -1), (1, 0), (0, 1)],
    ],
    ids=["steep", "steep-mirror"],
)
def test_fan_with_a_steep_ray_sweeps_once(rays):
    # a Hirzebruch surface in other coordinates: |x/y| of the second ray is 10^10
    assert ToricFan(rays).rays == tuple(rays)
    assert self_intersections(ToricFan(rays)) == [10**10, 0, -(10**10), 0]


def test_fan_winding_twice_is_rejected():
    # every consecutive pair is unimodular and positively oriented, but the
    # rays go round the origin twice
    rays = [(1, 0), (-2, 1), (-1, 0), (-2, -1), (-1, -1), (-1, -2),
            (0, -1), (1, 1), (0, 1), (-1, 1), (1, -2), (1, -1)]
    with pytest.raises(InputError) as err:
        ToricFan(rays)
    assert str(err.value) == "rays do not sweep the plane exactly once"


def test_self_intersections():
    assert self_intersections(P2) == [-1, -1, -1]
    assert self_intersections(F0) == [0, 0, 0, 0]
    assert self_intersections(F2) == [0, 2, 0, -2]
    assert self_intersections(DP6) == [1] * 6


def test_fan_to_model_p2():
    model, classes = fan_to_model(P2)
    assert model.rank == 1
    assert all(c.coords == (1,) for c in classes)
    assert pair(model, classes[0], classes[0]) == 1


def test_fan_to_model_hirzebruch():
    model, classes = fan_to_model(F1)
    assert model.rank == 2
    assert model.gram == ((0, 1), (1, -1))
    # D4 is the +1 section: f + e
    assert classes[3].coords == (1, 1)
    assert pair(model, classes[3], classes[3]) == 1
    # rulings on F0
    model0, classes0 = fan_to_model(F0)
    assert model0.gram == ((0, 1), (1, 0))


def test_fan_to_model_signature():
    for fan in (P2, F0, F1, F2, DP6):
        model, _ = fan_to_model(fan)
        assert model.rank == len(fan) - 2


def test_newton_polygon_p2():
    for d in (1, 2, 3):
        assert newton_polygon(P2, ToricDivisor((0, 0, d))) == [
            (0, 0),
            (d, 0),
            (0, d),
        ]


def test_newton_polygon_matches_brute_oracle():
    rng = random.Random(42)
    fans = [P2, F0, F1, F2, DP6]
    checked = 0
    while checked < 40:
        fan = rng.choice(fans)
        coeffs = tuple(rng.randrange(0, 5) for _ in fan.rays)
        lengths = combinatorial_edge_lengths(fan, ToricDivisor(coeffs))
        if any(l < 0 for l in lengths):
            with pytest.raises(DegenerateInput):
                newton_polygon(fan, ToricDivisor(coeffs))
            continue
        got = newton_polygon(fan, ToricDivisor(coeffs))
        want = brute_halfplane_vertices(list(fan.rays), list(coeffs))
        assert got == want, (fan.rays, coeffs)
        checked += 1


def test_newton_polygon_point_and_edge_lengths():
    assert newton_polygon(P2, ToricDivisor((0, 0, 0))) == [(0, 0)]
    poly = newton_polygon(F1, ToricDivisor((0, 0, 1, 2)))
    assert poly == [(0, 0), (1, 0), (3, 2), (0, 2)]
    assert combinatorial_edge_lengths(F1, ToricDivisor((0, 0, 1, 2))) == [2, 1, 2, 3]


def _monomial_okounkov(fan, div, flag_index):
    """The Newton polygon under the monomial valuation, as `toric-polygon`
    computes it."""
    return monomial_valuation(fan, div, flag_index)(newton_polygon(fan, div))


def test_monomial_okounkov_p2():
    div = ToricDivisor((0, 0, 3))
    assert _monomial_okounkov(P2, div, 1) == [(0, 0), (3, 0), (0, 3)]
    assert _monomial_okounkov(P2, div, 3) == [(0, 0), (3, 0), (0, 3)]
    point = _monomial_okounkov(P2, ToricDivisor((0, 0, 0)), 2)
    assert point == [(0, 0)]


def test_monomial_okounkov_bad_index():
    with pytest.raises(InputError):
        _monomial_okounkov(P2, ToricDivisor((0, 0, 1)), 0)


def test_crosscheck_batteries():
    for name, (fan, divisors) in AMPLE.items():
        for coeffs in divisors:
            for idx in range(1, len(fan) + 1):
                report = crosscheck(fan, ToricDivisor(coeffs), idx)
                assert report.equal, (name, coeffs, idx)
                assert report.area2 == report.divisor_square
                assert shoelace2(list(report.walk_vertices)) == report.area2


def test_crosscheck_rejects_non_ample():
    with pytest.raises(InputError):
        crosscheck(F1, ToricDivisor((0, 0, 0, 1)), 1)


# -- the closed forms against the eliminations they replaced ----------------


def _self_intersections_by_division(rays):
    """b_i from v_{i-1} + v_{i+1} = b_i v_i by exact division, as
    `self_intersections` found it before its closed form det(v_{i-1}, v_{i+1})."""
    out = []
    for i, v in enumerate(rays):
        u, w = rays[i - 1], rays[(i + 1) % len(rays)]
        s = (u[0] + w[0], u[1] + w[1])
        k = 0 if v[0] != 0 else 1
        b, rem = divmod(s[k], v[k])
        assert rem == 0 and (b * v[0], b * v[1]) == s
        out.append(b)
    return out


def _classes_by_elimination(rays):
    """Boundary classes with the characters m (<m, v_{n-1}> = 1,
    <m, v_n> = 0) and m' (the roles swapped) solved by `linalg.solve_many`."""
    n, rho = len(rays), len(rays) - 2
    chars = solve_many([list(rays[n - 2]), list(rays[n - 1])], [[1, 0], [0, 1]])
    classes = [tuple(Fraction(int(i == j)) for j in range(rho)) for i in range(rho)]
    for m in chars:
        classes.append(tuple(-(m[0] * v[0] + m[1] * v[1]) for v in rays[:rho]))
    return classes


def _newton_polygon_by_elimination(rays, coeffs):
    """Corners solved by `linalg.solve`, repeats merged, counterclockwise
    from the lexicographically smallest."""
    n = len(rays)
    out = []
    for i in range(n):
        j = (i + 1) % n
        p = tuple(solve([list(rays[i]), list(rays[j])], [-coeffs[i], -coeffs[j]]))
        if not out or out[-1] != p:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    k = min(range(len(out)), key=lambda i: out[i])
    return out[k:] + out[:k]


def _edge_lengths(rays, coeffs):
    b = _self_intersections_by_division(rays)
    n = len(rays)
    return [coeffs[i - 1] + coeffs[(i + 1) % n] - b[i] * coeffs[i] for i in range(n)]


def _divisors(rng, rays):
    """The zonotope divisor (ample on every fan), random nonnegative
    perturbations of it, and small random divisors, nef or not."""
    zono = [sum(max(0, v[0] * w[1] - v[1] * w[0]) for w in rays) for v in rays]
    out = [zono]
    out += [[a + rng.randrange(0, 3) for a in zono] for _ in range(3)]
    out += [[rng.randrange(-2, 4) for _ in rays] for _ in range(6)]
    return out


FANS = fan_corpus(19, 30)


def test_fan_corpus_spans_three_to_twelve_rays_with_a_steep_one():
    assert {len(rays) for rays in FANS} >= {3, 12}
    assert all(3 <= len(rays) <= 12 for rays in FANS)
    assert max(abs(x) for rays in FANS for v in rays for x in v) >= 10**10


@pytest.mark.parametrize("k", range(len(FANS)))
def test_closed_forms_match_eliminations(k):
    rays = FANS[k]
    fan = ToricFan(rays)
    assert self_intersections(fan) == _self_intersections_by_division(rays)
    _, classes = fan_to_model(fan)
    assert [c.coords for c in classes] == _classes_by_elimination(rays)
    rng = random.Random(k)
    nef = ample = 0
    for coeffs in _divisors(rng, rays):
        div = ToricDivisor(coeffs)
        lengths = _edge_lengths(rays, coeffs)
        if min(lengths) < 0:
            with pytest.raises(DegenerateInput):
                newton_polygon(fan, div)
            continue
        got = newton_polygon(fan, div)
        assert got == _newton_polygon_by_elimination(rays, coeffs)
        assert got == brute_halfplane_vertices(rays, coeffs)
        nef += 1
        if min(lengths) > 0:
            ample += 1
            for idx in range(1, len(rays) + 1):
                assert crosscheck(fan, div, idx).equal, (rays, coeffs, idx)
    assert ample >= 1 and nef >= ample


@pytest.mark.parametrize(
    "command,case,steps",
    [
        (
            "toric-polygon",
            "toric_f1_polygon",
            ["newton_polygon", "combinatorial_edge_lengths", "monomial_valuation"],
        ),
        (
            "toric-crosscheck",
            "toric_p2_crosscheck",
            # the length check, the length > 0 check, the flag index, the
            # Newton polygon (which takes the lengths again), then the model
            [
                "combinatorial_edge_lengths",
                "monomial_valuation",
                "newton_polygon",
                "combinatorial_edge_lengths",
                "fan_to_model",
            ],
        ),
    ],
)
def test_toric_commands_call_the_public_functions(monkeypatch, capsys, command, case, steps):
    # every binding of the four public steps, in toric and in the CLI, is
    # counted in the order it is entered
    calls = []
    for name in ("combinatorial_edge_lengths", "monomial_valuation", "newton_polygon", "fan_to_model"):
        fn = getattr(toric, name)

        def counted(*args, _name=name, _fn=fn):
            calls.append(_name)
            return _fn(*args)

        for mod in (toric, cli):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    doc = Path(__file__).resolve().parent.parent / "cases" / f"{case}.json"
    assert main([command, str(doc)]) == 0
    capsys.readouterr()
    assert calls == steps
