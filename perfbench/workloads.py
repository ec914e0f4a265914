"""The three benchmark workloads and the checks on their outputs.

A workload is a list of operations, each one `noksurf <command> <document>`.
Documents come from the frozen generators in `gen.py`.  The benchmark seed
only ever picks among documents whose outputs are recorded in
`expected.json`, so every output of every seed is checked against a digest
taken at the commit that defined the benchmark.

Why the seed picks only what it picks: run-to-run spread across seeds counts
as noise against the benchmark's bounds, so a seed may change inputs only in
ways that keep the work per pass nearly constant.  Models, divisors and flag
curves are fixed (one rank-32 walk costs 0.25 s to 3.3 s depending on the
model, and even 220 rank 1-4 documents drawn from a larger pool vary by 6%
in total cost); the seed draws each `polygon` document's flag point, one of
MULT_VARIANTS recorded local-multiplicity choices, which the walk never
reads.  flag-scan is a fixed set of chain searches.  Every seed also fixes
the order of operations in each pass.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

CORPUS_SIZE = 220
TORIC_RAYS = (5, 6, 7, 8, 9, 10)
LADDER = {8: 12, 16: 8, 32: 3}  # rank -> models per pass
MULT_VARIANTS = 4
WORKLOADS = ("small-docs", "rank-ladder", "flag-scan")


@dataclass
class Op:
    key: str  # names the document in expected.json
    command: str
    text: str  # the document, exactly as written to disk
    path: str = ""


def digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()[:16]


# -- document pools -----------------------------------------------------------


def corpus_op(i: int, variant: int) -> Op:
    doc = gen.corpus_case(random.Random(1_000_000 + i))
    if variant:
        doc = gen.with_flag_point(doc, random.Random(5_000_000 + 10 * i + variant))
    return Op(f"corpus/{i}/{variant}", "polygon", gen.dump(doc))


def toric_op(nrays: int) -> Op:
    doc = gen.toric_case(random.Random(2_000_000 + nrays), nrays)
    return Op(f"toric/{nrays}", "toric-crosscheck", gen.dump(doc))


def ladder_op(rho: int, i: int, variant: int) -> Op:
    doc = gen.ladder_case(random.Random(3_000_000 + 1000 * rho + i), rho)
    if variant:
        doc = gen.with_flag_point(doc, random.Random(4_000_000 + 1000 * rho + 10 * i + variant))
    return Op(f"ladder/{rho}/{i}/{variant}", "polygon", gen.dump(doc))


def chain_ops() -> list[Op]:
    """Every achievable vertex count on the rank 5 and 6 chains, the full
    search on each chain, and the two costliest searches at rank 7.

    A full rank-7 scan (13 realizations, about 4 s) would double the pass
    and halve the repetitions of each operation; with per-operation host
    noise near 12%, that leaves p50 and p90 too unsteady to gate on.
    """
    out = []
    def search(rho, k):
        return Op(f"chain/{rho}/search/{k}", "flag-search", gen.dump(gen.chain_search(rho, k)))

    out = []
    for rho in (5, 6):
        for v in range(3, 2 * rho + 2):
            out.append(Op(f"chain/{rho}/scan/{v}", "scan-vertex-counts", gen.dump(gen.chain_scan(rho, v))))
        out.append(search(rho, rho - 1))
    return out + [search(7, 5), search(7, 6)]


def case_ops(root: Path) -> list[Op]:
    """The committed cases, one operation per recorded expected output."""
    out = []
    for exp in sorted((root / "cases" / "expected").glob("*.json")):
        stem, command, _ = exp.name.split(".")
        text = (root / "cases" / f"{stem}.json").read_text(encoding="utf-8")
        out.append(Op(f"case/{stem}/{command}", command, text, str(root / "cases" / f"{stem}.json")))
    return out


def build(name: str, seed: int, root: Path, tiny: bool = False) -> list[Op]:
    """Operations of one pass of workload `name` for `seed`, in pass order.

    `tiny` keeps a few operations of each kind, for the smoke test.
    """
    rng = random.Random(seed)
    if name == "small-docs":
        ops = case_ops(root)[: 3 if tiny else None]
        ops += [corpus_op(i, rng.randrange(MULT_VARIANTS)) for i in range(12 if tiny else CORPUS_SIZE)]
        ops += [toric_op(n) for n in TORIC_RAYS[: 2 if tiny else None]]
    elif name == "rank-ladder":
        ladder = {8: 2} if tiny else LADDER
        ops = [
            ladder_op(rho, i, rng.randrange(MULT_VARIANTS))
            for rho, count in ladder.items()
            for i in range(count)
        ]
    elif name == "flag-scan":
        ops = chain_ops()[:4] if tiny else chain_ops()
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops


def pool() -> list[Op]:
    """Every generated document any seed can draw, for recording digests."""
    ops = [corpus_op(i, v) for i in range(CORPUS_SIZE) for v in range(MULT_VARIANTS)]
    ops += [toric_op(n) for n in TORIC_RAYS]
    ops += [
        ladder_op(rho, i, v)
        for rho, count in LADDER.items()
        for i in range(count)
        for v in range(MULT_VARIANTS)
    ]
    ops += chain_ops()
    return ops


def load_expected() -> dict[str, list[str]]:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


# -- output checks ------------------------------------------------------------


class Checker:
    """Decides whether one operation's stdout is correct.

    Committed cases must match `cases/expected/` byte for byte.  Generated
    documents must match the recorded digests of the document and of its
    output.  On top of that every output gets a semantic check computed here,
    outside the program: the exact area law for polygons, the toric
    self-intersection for cross-checks, and the certificate fields of the
    searches.  A verified (key, output) pair is not re-checked.
    """

    def __init__(self, root: Path, expected: dict[str, list[str]]):
        self.root = root
        self.expected = expected
        self.seen: dict[str, str] = {}

    def check(self, op: Op, rc: int, out: str) -> str | None:
        """None when correct, else the reason."""
        if rc != 0:
            return f"exit code {rc}"
        if self.seen.get(op.key) == out:
            return None
        why = self._check(op, out)
        if why is None:
            self.seen[op.key] = out
        return why

    def _check(self, op: Op, out: str) -> str | None:
        if op.key.startswith("case/"):
            _, stem, command = op.key.split("/")
            want = (self.root / "cases" / "expected" / f"{stem}.{command}.json").read_text(
                encoding="utf-8"
            )
            return None if out == want else "differs from cases/expected"
        rec = self.expected.get(op.key)
        if rec is None:
            return "no recorded digest"
        if digest(op.text) != rec[0]:
            return "generated document differs from the recorded one"
        if digest(out) != rec[1]:
            return "output differs from the recorded digest"
        payload = json.loads(out)
        doc = json.loads(op.text)
        if op.command == "polygon":
            return check_area_law(doc, payload)
        if op.command == "toric-crosscheck":
            return check_toric(doc, payload)
        if op.command == "scan-vertex-counts":
            (row,) = payload["realizations"]
            ok = row["verified"] and row["v"] == doc["target_v"] == row["vertex_count"] == len(row["vertices"])
            return None if ok else "realization not verified"
        if op.command == "flag-search":
            config = doc["flag_search"]["config"]
            got = [a["label"] for a in payload["appearance"]]
            times = [Fraction(a["t"]) for a in payload["appearance"]]
            ok = got == config and all(a < b for a, b in zip([Fraction(0)] + times, times))
            return None if ok else "appearance order broken"
        return None


# exact values of the form p + q*sqrt(d), as (p, q) over one radicand d


def parse_exact(text: str, d: int) -> tuple[Fraction, Fraction]:
    if "sqrt(" not in text:
        return Fraction(text), Fraction(0)
    head, _, _ = text.partition("*sqrt(")
    cut = max(head.rfind("+"), head.rfind("-"))
    p, q = (head[:cut], head[cut:]) if cut > 0 else ("0", head)
    if not text.endswith(f"sqrt({d})"):
        raise ValueError(f"radicand of {text} is not {d}")
    return Fraction(p), Fraction(q)


def _mul(a, b, d):
    return a[0] * b[0] + a[1] * b[1] * d, a[0] * b[1] + a[1] * b[0]


def shoelace2(points, d):
    """Twice the signed area of a polygon with vertices in Q(sqrt d)."""
    total = [Fraction(0), Fraction(0)]
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        a, b = _mul(x0, y1, d), _mul(x1, y0, d)
        total[0] += a[0] - b[0]
        total[1] += a[1] - b[1]
    return tuple(total)


def check_area_law(doc: dict, payload: dict) -> str | None:
    """2*area = P_nu^2, with P_nu rebuilt from the document and the profile.

    P_nu = D - nu*C - sum a_j(nu) C_j over the first chamber's support; the
    pairing and the shoelace area are computed here, not by the program.
    """
    surf = doc["surface"]
    gram = surf["matrix"]
    classes = {c["label"]: c["class"] for c in surf["curves"]}
    flag = doc["flag"]["curve"]
    flag_cls = classes[flag] if isinstance(flag, str) else flag
    prof = payload["profile"]
    d = prof["radicand"]
    nu = Fraction(prof["nu"])
    p = [Fraction(x) - nu * c for x, c in zip(doc["divisor"], flag_cls)]
    first = prof["segments"][0]
    for label, (a0, a1) in first["coeffs"].items():
        a = Fraction(a0) + Fraction(a1) * nu
        p = [x - a * c for x, c in zip(p, classes[label])]
    p_sq = sum(gram[i][j] * p[i] * p[j] for i in range(len(p)) for j in range(len(p)))
    pts = [(parse_exact(v["t"], d), parse_exact(v["s"], d)) for v in payload["vertices"]]
    area2 = shoelace2(pts, d)
    if area2[1] != 0 or abs(area2[0]) != p_sq:
        return f"shoelace 2*area {area2} != P_nu^2 {p_sq}"
    if Fraction(payload["area2"]) != p_sq or Fraction(payload["area"]) * 2 != p_sq:
        return "reported area disagrees with P_nu^2"
    return None


def check_toric(doc: dict, payload: dict) -> str | None:
    """Twice the polygon area equals D^2 = sum a_i (D.D_i) from the fan."""
    rays = [tuple(r) for r in doc["fan"]["rays"]]
    a = doc["toric_divisor"]
    d_sq = sum(x * l for x, l in zip(a, gen.edge_lengths(rays, a)))
    pts = [((Fraction(t), Fraction(0)), (Fraction(s), Fraction(0))) for t, s in payload["vertices"]]
    area2 = shoelace2(pts, 1)
    ok = (
        payload["equal"] is True
        and abs(area2[0]) == d_sq
        and Fraction(payload["area2"]) == d_sq == Fraction(payload["divisor_square"])
    )
    return None if ok else f"toric area {area2[0]} / D^2 {d_sq} mismatch"
