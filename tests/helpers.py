"""Shared test utilities: independent oracles and a randomized model corpus.

The oracles here deliberately avoid the library's own algorithms: the
half-plane oracle enumerates all line pairs, the inertia oracles use leading
principal minors or the characteristic polynomial, linear systems are
checked against a plain Fraction Gauss-Jordan, the Zariski decomposition
comes from Zariski's construction over that Gauss-Jordan and the raw Gram
matrix, areas come from a direct shoelace or from integrating the boundary
functions.  The corpus generator builds genuinely geometric models
(iterated blowups in generic or infinitely-near position, plus lines
through pairs of distinct base points), so every classified theorem must
hold on it.
"""
from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt

from noksurf import (
    CurveRecord,
    DivisorClass,
    FlagSpec,
    SurfaceModel,
    is_model_ample,
    pair,
)
from noksurf.record import Record


# -- independent oracles -------------------------------------------------------


def shoelace2(points) -> Fraction:
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        total += Fraction(x0) * Fraction(y1) - Fraction(x1) * Fraction(y0)
    return total


def integral(f) -> Fraction:
    """Exact integral of a PiecewiseLinear over its domain, one trapezoid
    per piece; the area law checks it against twice the width's integral
    without sharing the polygon's shoelace."""
    xs, ys = f.breakpoints, f.values
    total = Fraction(0)
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        total = total + (y0 + y1) * (x1 - x0) / 2
    return total


def leading_minor_inertia(q) -> tuple[int, int, int]:
    """Jacobi's rule: sign changes of leading principal minors.

    Only valid when every leading minor is nonzero; callers must ensure it.
    """
    n = len(q)
    minors = [Fraction(1)]
    for k in range(1, n + 1):
        minors.append(_det([row[:k] for row in q[:k]]))
    assert all(m != 0 for m in minors), "oracle needs nonzero leading minors"
    changes = sum(1 for a, b in zip(minors, minors[1:]) if (a > 0) != (b > 0))
    return n - changes, changes, 0


def _det(m) -> Fraction:
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def gauss_jordan(rows, columns=()):
    """Plain Fraction Gauss-Jordan on [rows | columns]: (rank, solutions).

    `solutions` holds one solution per right-hand side when the matrix is
    square and nonsingular, else None.
    """
    n = len(rows)
    width = len(rows[0]) if rows else 0
    m = [
        [Fraction(x) for x in row] + [Fraction(c[i]) for c in columns]
        for i, row in enumerate(rows)
    ]
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, n) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(n):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    if r != n or width != n:
        return r, None
    return r, [[m[i][width + j] for i in range(n)] for j in range(len(columns))]


def zariski_negative_part(gram, curves, divisor) -> dict:
    """Zariski's construction of the negative part of `divisor` against the
    curves {label: class}, paired through the raw Gram matrix (Zariski,
    Ann. of Math. 76 (1962); Bauer, J. Algebraic Geom. 18 (2009)): start
    from the curves D meets negatively, solve (D - N).C_j = 0 on the
    support with `gauss_jordan`, and grow the support by every curve that
    D - N still meets negatively.  Returns every curve's coefficient, 0
    off the support."""

    def times_gram(x):
        return [sum(g * y for g, y in zip(row, x) if g) for row in gram]

    def dot(x, gy):
        return Fraction(sum(a * b for a, b in zip(x, gy) if a))

    g_curves = {l: times_gram(c) for l, c in curves.items()}
    g_d = times_gram(divisor)
    support = [l for l in curves if dot(curves[l], g_d) < 0]
    while True:
        _, solutions = gauss_jordan(
            [[dot(curves[i], g_curves[j]) for j in support] for i in support],
            [[dot(curves[j], g_d) for j in support]],
        )
        assert solutions is not None, f"support {support} is singular"
        coeffs = dict(zip(support, solutions[0]))
        assert all(x > 0 for x in coeffs.values()), coeffs
        g_rest = [
            x - sum(a * g_curves[l][i] for l, a in coeffs.items()) for i, x in enumerate(g_d)
        ]
        grow = [l for l in curves if l not in coeffs and dot(curves[l], g_rest) < 0]
        if not grow:
            return {l: coeffs.get(l, Fraction(0)) for l in curves}
        support += grow


def charpoly_inertia(q) -> tuple[int, int, int]:
    """Inertia from the characteristic polynomial (Faddeev-LeVerrier).

    A real symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs is exact: sign changes of p(x) count the positive eigenvalues,
    those of p(-x) the negative ones, and the zero eigenvalues are the
    multiplicity of the root 0.
    """
    n = len(q)
    a = [[Fraction(x) for x in row] for row in q]
    coeffs = [Fraction(1)]  # x^n, x^(n-1), ..., x^0
    am = [[Fraction(0)] * n for _ in range(n)]  # A*M_k, with M_0 = 0
    for k in range(1, n + 1):
        mk = [[x + (coeffs[-1] if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(am)]
        am = [[sum(a[i][l] * mk[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
    zero = 0
    while zero < n and coeffs[n - zero] == 0:
        zero += 1
    rest = coeffs[: n + 1 - zero]

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    flipped = [c if (n - i) % 2 == 0 else -c for i, c in enumerate(rest)]
    return changes(rest), changes(flipped), zero


def _ccw_sorted(points):
    cx = sum(Fraction(p[0]) for p in points) / len(points)
    cy = sum(Fraction(p[1]) for p in points) / len(points)

    def key(p):
        dx, dy = Fraction(p[0]) - cx, Fraction(p[1]) - cy
        if dy > 0 or (dy == 0 and dx > 0):
            half = 0
        else:
            half = 1
        slope = Fraction(-dx, dy) if dy != 0 else Fraction(-10**12)
        return half, slope

    return sorted(points, key=key)


def brute_halfplane_vertices(rays, coeffs):
    """All vertices of {m : <m, v_i> >= -a_i} by pairwise line intersection.

    Independent of the production corner walk: every pair of boundary lines
    is solved and filtered against all constraints.
    """
    n = len(rays)
    pts = set()
    for i, j in combinations(range(n), 2):
        (a, b), (c, d) = rays[i], rays[j]
        det = a * d - b * c
        if det == 0:
            continue
        rhs1, rhs2 = -coeffs[i], -coeffs[j]
        x = Fraction(rhs1 * d - b * rhs2, det)
        y = Fraction(a * rhs2 - rhs1 * c, det)
        if all(x * rays[k][0] + y * rays[k][1] >= -coeffs[k] for k in range(n)):
            pts.add((x, y))
    pts = list(pts)
    if len(pts) <= 2:
        return sorted(pts)
    # drop points interior to hull edges
    hull = []
    for p in pts:
        others = [q for q in pts if q != p]
        if not _between_any(p, others):
            hull.append(p)
    ordered = _ccw_sorted(hull)
    k = min(range(len(ordered)), key=lambda i: ordered[i])
    return ordered[k:] + ordered[:k]


def _between_any(p, others) -> bool:
    for a, b in combinations(others, 2):
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross != 0:
            continue
        if min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[
            1
        ] <= max(a[1], b[1]):
            return True
    return False


def story_matches(profile, config) -> bool:
    """The flag search's ordered chamber story, read off a walk's profile:
    the configuration's curves appear after t = 0 in strictly increasing
    order, nothing else appears, the last appears before mu, and the support
    at mu is the configuration (the predicate the replay decides in
    integers)."""
    times = [profile.appearance.get(l) for l in config]
    if None in times or len(profile.appearance) != len(config):
        return False
    if any(t <= 0 for t in times) or any(a >= b for a, b in zip(times, times[1:])):
        return False
    if times and not times[-1] < profile.mu:
        return False
    return set(profile.final_support()) == set(config)


def random_unimodular(rng: random.Random, n: int):
    """Product of elementary integer row operations; determinant +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n + rng.randrange(3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += f * m[j][k]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        m[i], m[j] = m[j], m[i]
    return m


# -- geometric corpus ----------------------------------------------------------


@dataclass
class Case:
    name: str
    model: SurfaceModel
    divisor: DivisorClass
    flag: object  # label or DivisorClass
    spec: FlagSpec  # the flag with the case's local multiplicities
    candidates: list[str]
    ample_divisor: bool


def _forest_curves(rng: random.Random, rho: int):
    """Reduced exceptional classes of a random blowup forest, plus lines.

    Basis (H, E_1, ..., E_{rho-1}); node i carries E_i minus its immediate
    children, which is the class of an irreducible curve on the iterated
    blowup.  Lines join two distinct first-level points.
    """
    npts = rho - 1
    parent = [None] * (npts + 1)  # 1-based
    for i in range(2, npts + 1):
        if rng.random() < 0.55:
            parent[i] = rng.randrange(1, i)
    children = {i: [c for c in range(1, npts + 1) if parent[c] == i] for i in range(1, npts + 1)}
    curves = []
    for i in range(1, npts + 1):
        cls = [0] * rho
        cls[i] = 1
        for c in children[i]:
            cls[c] = -1
        curves.append(CurveRecord(f"N{i}", tuple(cls)))
    roots = [i for i in range(1, npts + 1) if parent[i] is None]
    lines = []
    for i, j in combinations(roots, 2):
        cls = [0] * rho
        cls[0], cls[i], cls[j] = 1, -1, -1
        lines.append(CurveRecord(f"L{i}_{j}", tuple(cls)))
    rng.shuffle(lines)
    curves.extend(lines[: rng.randrange(len(lines) + 1)])
    assert len({c.label for c in curves}) == len(curves), "forest labels collide"
    # multiplicities m_i = descendants + 1 make the witness pair to 1 with
    # every node; lines then need H-coefficient above any m_i + m_j
    desc = {i: 0 for i in range(1, npts + 1)}
    for i in sorted(range(1, npts + 1), reverse=True):
        desc[i] = sum(desc[c] + 1 for c in children[i])
    mults = [desc[i] + 1 for i in range(1, npts + 1)]
    c0 = 1 + sum(mults) + max(mults, default=0)
    witness = [c0] + [-m for m in mults]
    return curves, witness


def _random_ample(rng, model, witness) -> DivisorClass:
    for _ in range(40):
        tweak = [rng.randrange(0, 3)] + [
            rng.randrange(-1, 2) for _ in range(model.rank - 1)
        ]
        d = DivisorClass([w + t for w, t in zip(witness, tweak)])
        if is_model_ample(model, d):
            return d
    return DivisorClass(witness)


def _random_flag(rng, case_model, witness):
    """Either a declared curve or a fresh model-ample class."""
    if case_model.curves and rng.random() < 0.45:
        return rng.choice(case_model.curves).label
    for _ in range(40):
        tweak = [rng.randrange(0, 2)] + [rng.randrange(-1, 2) for _ in range(case_model.rank - 1)]
        c = DivisorClass([w + t for w, t in zip(witness, tweak)])
        if is_model_ample(case_model, c):
            return c
    return DivisorClass(witness)


def _random_mults(rng, model, flag_cls, flag_label):
    """Geometrically consistent flag point: generic, on one curve, or at an
    intersection point of two curves that genuinely meet."""
    pool = [
        rec.label
        for rec in model.curves
        if rec.label != flag_label
        and pair(model, model.class_of(rec.label), flag_cls) >= 1
    ]
    style = rng.random()
    if not pool or style < 0.35:
        return {}
    if style < 0.8 or len(pool) < 2:
        l = rng.choice(pool)
        top = int(pair(model, model.class_of(l), flag_cls))
        return {l: rng.randrange(1, top + 1)}
    for _ in range(10):
        a, b = rng.sample(pool, 2)
        if pair(model, model.class_of(a), model.class_of(b)) >= 1:
            return {a: 1, b: 1}
    l = rng.choice(pool)
    return {l: 1}


def make_case(rng: random.Random, index: int) -> Case:
    rho = rng.choice([1, 2, 2, 3, 3, 3, 4, 4, 4])
    if rho == 1:
        model = SurfaceModel(1, [[1]], [CurveRecord("H", (1,))], (1,))
        d = DivisorClass((rng.randrange(1, 6),))
        spec = FlagSpec(model, "H", {})
        return Case(f"case{index}-p2", model, d, "H", spec, ["H"], True)
    return forest_case(rng, rho, index)


def forest_case(rng: random.Random, rho: int, index: int = 0) -> Case:
    """A case on a random blowup-forest model of rank rho >= 2: a model-ample
    divisor (sometimes plus a multiple of a curve), a declared or ample flag
    and a consistent flag point."""
    gram = [[0] * rho for _ in range(rho)]
    gram[0][0] = 1
    for i in range(1, rho):
        gram[i][i] = -1
    curves, witness = _forest_curves(rng, rho)
    model = SurfaceModel(rho, gram, curves, witness)
    ample = _random_ample(rng, model, witness)
    big_not_nef = rng.random() < 0.3 and model.curves
    divisor = ample
    if big_not_nef:
        extra = rng.choice(model.curves)
        divisor = ample + model.class_of(extra.label).scale(rng.randrange(1, 3))
    flag = _random_flag(rng, model, witness)
    flag_cls = model.class_of(flag) if isinstance(flag, str) else flag
    flag_label = flag if isinstance(flag, str) else None
    mults = _random_mults(rng, model, flag_cls, flag_label)
    spec = FlagSpec(model, flag, mults)
    labels = list(model.labels())
    # candidate subsets only against nef starting classes: relative bigness
    # of a non-nef class cannot be certified without its negative curves
    if not big_not_nef and rng.random() < 0.25 and len(labels) > 1:
        keep = rng.randrange(1, len(labels) + 1)
        candidates = rng.sample(labels, keep)
    else:
        candidates = labels
    return Case(
        f"case{index}-rho{rho}",
        model,
        divisor,
        flag,
        spec,
        candidates,
        not big_not_nef,
    )


def case_document(case: Case) -> dict:
    """A corpus case as a schema-1 `polygon` document."""
    model = case.model
    flag = case.flag if isinstance(case.flag, str) else [str(x) for x in case.flag]
    return {
        "schema": 1,
        "surface": {
            "rank": model.rank,
            "matrix": [list(row) for row in model.gram],
            "curves": [{"label": c.label, "class": list(c.cls)} for c in model.curves],
            "ample_witness": [str(x) for x in model.ample_witness],
        },
        "divisor": [str(x) for x in case.divisor],
        "flag": {"curve": flag, "local_mult": dict(case.spec.local_mult)},
        "candidates": list(case.candidates),
    }


def chain_model(rho: int) -> tuple[SurfaceModel, DivisorClass]:
    """Points blown up infinitely near in a chain, C_i = E_i - E_{i+1} and
    C_last = E_last, with an ample witness and the divisor one H past it."""
    gram = [[1 if i == j == 0 else -1 if i == j else 0 for j in range(rho)] for i in range(rho)]
    curves = []
    for i in range(1, rho):
        cls = [0] * rho
        cls[i] = 1
        if i + 1 < rho:
            cls[i + 1] = -1
        curves.append(CurveRecord(f"C{i}", tuple(cls)))
    mults = [rho - i for i in range(1, rho)]
    witness = [isqrt(sum(m * m for m in mults)) + 1] + [-m for m in mults]
    return SurfaceModel(rho, gram, curves, witness), DivisorClass([witness[0] + 1] + witness[1:])


def smooth_fan(rng: random.Random, nrays: int, a: int | None = None) -> list[tuple[int, int]]:
    """Rays of a smooth complete fan, counterclockwise from a random ray.

    P2 (three rays) or the Hirzebruch fan F_a, a random in 0..3 unless
    given, blown up at random torus-fixed points: a blowup inserts
    v_i + v_{i+1} between v_i and v_{i+1}, which keeps every consecutive
    pair unimodular.
    """
    if nrays == 3 or (a is None and rng.random() < 0.3):
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        rays = [(1, 0), (0, 1), (-1, rng.randrange(0, 4) if a is None else a), (0, -1)]
    while len(rays) < nrays:
        i = rng.randrange(len(rays))
        u, w = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + w[0], u[1] + w[1]))
    k = rng.randrange(len(rays))
    return rays[k:] + rays[:k]


def fan_corpus(seed: int, count: int) -> list[list[tuple[int, int]]]:
    """`count` smooth fans of 3 to 12 rays; the first is F_{10^10}, whose
    ray (-1, 10^10) is steep, blown up to 8 rays."""
    rng = random.Random(seed)
    fans = [smooth_fan(rng, 8, a=10**10)]
    return fans + [smooth_fan(rng, rng.randrange(3, 13)) for _ in range(count - 1)]


def corpus(seed: int, count: int) -> list[Case]:
    rng = random.Random(seed)
    return [make_case(rng, i) for i in range(count)]


def forest_corpus(seed: int, count: int, rho: int) -> list[Case]:
    """`count` forest cases, all of rank rho (corpus() stops at rank 4)."""
    rng = random.Random(seed)
    return [forest_case(rng, rho, i) for i in range(count)]


def rebuilt(record, **changes):
    """A copy of `record` built through its constructor, whose parameters
    are the record's fields (its slots, for Record's own constructor), with
    the fields in `changes` replaced."""
    cls = type(record)
    names = cls.__slots__ if cls.__init__ is Record.__init__ else inspect.signature(cls).parameters
    return cls(**{name: changes.get(name, getattr(record, name)) for name in names})
