"""Frozen document generators for the benchmark workloads.

These are standalone copies of the model generators the test suite uses,
kept here so that later changes to the test helpers cannot silently change
what the benchmark measures.  They import nothing from `noksurf`: pairings
and ampleness checks are plain integer arithmetic on the declared data.

Every generator draws only from the `random.Random` it is handed, so a seed
fixes its output, and returns schema-1 problem documents as dicts; `dump`
renders them to the exact bytes the benchmark writes to disk.
"""
from __future__ import annotations

import json
import random
from itertools import combinations
from math import isqrt


def dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _pair(gram, u, v) -> int:
    return sum(gram[i][j] * u[i] * v[j] for i in range(len(u)) for j in range(len(v)))


def _ample(gram, classes, c) -> bool:
    """Positive square and positive pairing with every declared curve."""
    return _pair(gram, c, c) > 0 and all(_pair(gram, c, k) > 0 for k in classes)


def _blowup_gram(rho: int):
    return [[1 if i == j == 0 else (-1 if i == j else 0) for j in range(rho)] for i in range(rho)]


def _surface(rho, gram, curves, witness) -> dict:
    return {
        "rank": rho,
        "matrix": gram,
        "curves": [{"label": l, "class": list(c)} for l, c in curves],
        "ample_witness": list(witness),
    }


# -- blowup forests -----------------------------------------------------------


def forest_curves(rng: random.Random, rho: int):
    """Reduced exceptional classes of a random blowup forest, plus lines.

    Basis (H, E_1, ..., E_{rho-1}); node i carries E_i minus its immediate
    children.  Lines join two distinct first-level points.  Returns
    ([(label, class)], witness) with the witness pairing to 1 with every node.
    """
    npts = rho - 1
    parent = [None] * (npts + 1)
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
        curves.append((f"N{i}", tuple(cls)))
    roots = [i for i in range(1, npts + 1) if parent[i] is None]
    lines = []
    for i, j in combinations(roots, 2):
        cls = [0] * rho
        cls[0], cls[i], cls[j] = 1, -1, -1
        lines.append((f"L{i}{j}", tuple(cls)))
    rng.shuffle(lines)
    curves.extend(lines[: rng.randrange(len(lines) + 1)])
    desc = {i: 0 for i in range(1, npts + 1)}
    for i in sorted(range(1, npts + 1), reverse=True):
        desc[i] = sum(desc[c] + 1 for c in children[i])
    mults = [desc[i] + 1 for i in range(1, npts + 1)]
    c0 = 1 + sum(mults) + max(mults, default=0)
    return curves, [c0] + [-m for m in mults]


def _random_ample(rng, gram, classes, witness):
    rho = len(witness)
    for _ in range(40):
        tweak = [rng.randrange(0, 3)] + [rng.randrange(-1, 2) for _ in range(rho - 1)]
        d = [w + t for w, t in zip(witness, tweak)]
        if _ample(gram, classes, d):
            return d
    return list(witness)


def _random_flag(rng, gram, curves, witness):
    """Either a declared curve label or a fresh model-ample class."""
    rho = len(witness)
    if curves and rng.random() < 0.45:
        return rng.choice(curves)[0]
    classes = [c for _, c in curves]
    for _ in range(40):
        tweak = [rng.randrange(0, 2)] + [rng.randrange(-1, 2) for _ in range(rho - 1)]
        c = [w + t for w, t in zip(witness, tweak)]
        if _ample(gram, classes, c):
            return c
    return list(witness)


def _random_mults(rng, gram, curves, flag_cls, flag_label):
    """Flag point: generic, on one curve, or where two meeting curves cross."""
    cls_of = dict(curves)
    pool = [l for l, c in curves if l != flag_label and _pair(gram, c, flag_cls) >= 1]
    style = rng.random()
    if not pool or style < 0.35:
        return {}
    if style < 0.8 or len(pool) < 2:
        l = rng.choice(pool)
        top = _pair(gram, cls_of[l], flag_cls)
        return {l: rng.randrange(1, top + 1)}
    for _ in range(10):
        a, b = rng.sample(pool, 2)
        if _pair(gram, cls_of[a], cls_of[b]) >= 1:
            return {a: 1, b: 1}
    return {rng.choice(pool): 1}


def _flag_and_point(rng, gram, curves, witness):
    flag = _random_flag(rng, gram, curves, witness)
    flag_cls = dict(curves)[flag] if isinstance(flag, str) else flag
    return flag, _random_mults(rng, gram, curves, flag_cls, flag if isinstance(flag, str) else None)


def with_flag_point(doc: dict, rng: random.Random) -> dict:
    """The same `polygon` document with a freshly drawn flag point."""
    surf = doc["surface"]
    curves = [(c["label"], tuple(c["class"])) for c in surf["curves"]]
    flag = doc["flag"]["curve"]
    flag_cls = dict(curves)[flag] if isinstance(flag, str) else flag
    mults = _random_mults(rng, surf["matrix"], curves, flag_cls, flag if isinstance(flag, str) else None)
    return dict(doc, flag={"curve": flag, "local_mult": mults})


def _polygon_doc(surface, divisor, flag, mults, candidates=None) -> dict:
    doc = {
        "schema": 1,
        "surface": surface,
        "divisor": list(divisor),
        "flag": {"curve": flag if isinstance(flag, str) else list(flag), "local_mult": mults},
    }
    if candidates is not None:
        doc["candidates"] = candidates
    return doc


def corpus_case(rng: random.Random) -> dict:
    """One rank 1-4 `polygon` document, the acceptance corpus's distribution."""
    rho = rng.choice([1, 2, 2, 3, 3, 3, 4, 4, 4])
    if rho == 1:
        surface = _surface(1, [[1]], [("H", (1,))], [1])
        return _polygon_doc(surface, [rng.randrange(1, 6)], "H", {}, ["H"])
    gram = _blowup_gram(rho)
    curves, witness = forest_curves(rng, rho)
    classes = [c for _, c in curves]
    divisor = _random_ample(rng, gram, classes, witness)
    big_not_nef = rng.random() < 0.3 and curves
    if big_not_nef:
        _, extra = rng.choice(curves)
        k = rng.randrange(1, 3)
        divisor = [d + k * e for d, e in zip(divisor, extra)]
    flag, mults = _flag_and_point(rng, gram, curves, witness)
    labels = [l for l, _ in curves]
    candidates = None
    # candidate subsets only against nef starting classes: relative bigness
    # of a non-nef class cannot be certified without its negative curves
    if not big_not_nef and rng.random() < 0.25 and len(labels) > 1:
        candidates = rng.sample(labels, rng.randrange(1, len(labels) + 1))
    return _polygon_doc(_surface(rho, gram, curves, witness), divisor, flag, mults, candidates)


def ladder_case(rng: random.Random, rho: int) -> dict:
    """A rank-`rho` blowup-forest `polygon` document with a model-ample divisor."""
    gram = _blowup_gram(rho)
    curves, witness = forest_curves(rng, rho)
    classes = [c for _, c in curves]
    divisor = _random_ample(rng, gram, classes, witness)
    flag, mults = _flag_and_point(rng, gram, curves, witness)
    return _polygon_doc(_surface(rho, gram, curves, witness), divisor, flag, mults)


# -- infinitely-near chains ---------------------------------------------------


def chain_model(rho: int):
    """Points blown up infinitely near in a chain: C_i = E_i - E_{i+1}, C_last = E_last."""
    gram = _blowup_gram(rho)
    curves = []
    for i in range(1, rho):
        cls = [0] * rho
        cls[i] = 1
        if i + 1 < rho:
            cls[i + 1] = -1
        curves.append((f"C{i}", tuple(cls)))
    mults = [rho - i for i in range(1, rho)]
    witness = [isqrt(sum(m * m for m in mults)) + 1] + [-m for m in mults]
    return _surface(rho, gram, curves, witness), [witness[0] + 1] + witness[1:]


def chain_search(rho: int, k: int) -> dict:
    """`flag-search` for the first k chain curves in order; an independent
    class is asked for whenever the rank allows one (k < rho - 1)."""
    surface, divisor = chain_model(rho)
    block = {"config": [f"C{i}" for i in range(1, k + 1)], "independent": k < rho - 1}
    return {"schema": 1, "surface": surface, "divisor": divisor, "flag_search": block}


def chain_scan(rho: int, v: int) -> dict:
    """`scan-vertex-counts` realizing v vertices over the whole chain."""
    surface, divisor = chain_model(rho)
    master = [f"C{i}" for i in range(1, rho)]
    return {"schema": 1, "surface": surface, "divisor": divisor, "master_config": master, "target_v": v}


# -- smooth toric fans --------------------------------------------------------


def edge_lengths(rays, coeffs):
    """D . D_i for every boundary divisor, from the fan's combinatorics."""
    n = len(rays)
    out = []
    for i in range(n):
        u, v, w = rays[i - 1], rays[i], rays[(i + 1) % n]
        s = (u[0] + w[0], u[1] + w[1])
        b = s[0] // v[0] if v[0] else s[1] // v[1]
        out.append(coeffs[i - 1] + coeffs[(i + 1) % n] - b * coeffs[i])
    return out


def smooth_fan(rng: random.Random, nrays: int):
    """A smooth complete fan: P2 or a Hirzebruch fan, star-subdivided at
    random cones until it has `nrays` rays (counterclockwise)."""
    if rng.random() < 0.3:
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        rays = [(1, 0), (0, 1), (-1, rng.randrange(0, 3)), (0, -1)]
    while len(rays) < nrays:
        i = rng.randrange(len(rays))
        u, w = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + w[0], u[1] + w[1]))
    return rays


def toric_case(rng: random.Random, nrays: int) -> dict:
    """`toric-crosscheck` on a smooth fan with `nrays` rays and an ample divisor."""
    rays = smooth_fan(rng, nrays)
    # the zonotope divisor is strictly convex on every fan; a random
    # nonnegative perturbation is kept only while all edges stay positive
    zono = []
    for v in rays:
        zono.append(sum(max(0, w[1] * v[0] - w[0] * v[1]) for w in rays))
    coeffs = zono
    for _ in range(20):
        trial = [a + rng.randrange(0, 3) for a in zono]
        if all(l > 0 for l in edge_lengths(rays, trial)):
            coeffs = trial
            break
    return {
        "schema": 1,
        "fan": {"rays": [list(r) for r in rays]},
        "toric_divisor": coeffs,
        "flag_index": rng.randrange(1, nrays + 1),
    }
