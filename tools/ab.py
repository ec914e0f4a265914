"""A/B comparison of two checkouts on the benchmark, in alternating pairs.

    python3 tools/ab.py --base ../parent --head . --workload flag-scan \
        --seed 1 --seconds 32 --pairs 10 --out BENCH_n.json

Each pair runs `perfbench/run.py --trace 0` once in each checkout, one run
at a time; even pairs run the base first and odd pairs the head first, so
drift on the host falls on both sides alike.  After the pairs of a workload
and seed, `perfbench/run.py --trace 1` runs TRACED_RUNS times in each
checkout for the per-layer metrics, alternating which side goes first, since
one traced run is a single noisy sample.  Every run gets
PYTHONDONTWRITEBYTECODE=1, and a checkout whose `src` holds a `__pycache__`
is refused: `setup_s` times a fresh `import noksurf.cli`, which is much
faster from cached bytecode, so both sides must import from source.

`--workload` and `--seed` may repeat; every combination is measured.  The
output file keeps both sides' result lines for every pair, and for every
end-to-end metric the pairs the head wins, the median and quartiles of each
side, the median gain (positive is better), the base's interquartile
range over its median and a verdict (see `verdict`, with the metric's
`bound` from BENCHMARK.json), and under `layers` each side's traced runs (`runs`)
with the median of each metric over them (`metrics`), their summed
`attempted` and `failed` counts and whether all were `correct`;
stdout gets one line per workload, seed and metric with those figures and
the verdict, one
line per workload and seed with each side's `src_lines` (the source line
count the run reports), and one `base -> head` line per per-layer metric.
Entries already in the file for other workload/seed combinations are kept.
Exit status: 0 when every run, traced or not, attempted operations and
failed none, 1 otherwise, 2 when a checkout is refused or a run cannot
start.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


class Refused(Exception):
    pass


def check_checkout(path: Path) -> None:
    if not (path / "perfbench" / "run.py").is_file():
        raise Refused(f"{path}: no perfbench/run.py")
    cached = sorted(str(p) for p in (path / "src").rglob("__pycache__"))
    if cached:
        raise Refused(f"{path}: src holds bytecode caches ({', '.join(cached)}); remove them first")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """Info and result line of one run of the checkout's benchmark."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise Refused(f"{checkout}: {' '.join(cmd[1:])} exited {res.returncode}: {res.stderr.strip()}")
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


TRACED_RUNS = 3


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3}


def traced_median(runs: list[dict]) -> dict:
    """One side's traced runs and, per metric, the median over them."""
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"] for r in runs), "unit": m["unit"]}
        for name, m in runs[0]["metrics"].items()
    }
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "runs": runs,
    }


# a gain needs at least this many pairs, and the head winning this share
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(s: dict, head_all_better: bool) -> str:
    """`gain` when the head wins at least WIN_SHARE of at least MIN_PAIRS
    pairs and its median gain exceeds the base's IQR/median; `worse` when its
    median is worse than the base's by more than the metric's `bound`;
    `unresolved` when the base's IQR/median is wider than the bound (or
    there are fewer than MIN_PAIRS pairs) and not every head run is better
    than every base run; otherwise `same`."""
    bound = s["bound"]
    if (
        s["pairs"] >= MIN_PAIRS
        and s["head_wins"] >= WIN_SHARE * s["pairs"]
        and s["median_gain"] > s["base_iqr_over_median"]
    ):
        return "gain"
    if s["median_gain"] < -bound:
        return "worse"
    if (s["base_iqr_over_median"] > bound or s["pairs"] < MIN_PAIRS) and not head_all_better:
        return "unresolved"
    return "same"


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    out = {}
    for name, m in metrics.items():
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if m["better"] == "higher" else -1
        b, h = spread(base), spread(head)
        s = out[name] = {
            "better": m["better"],
            "bound": m["bound"],
            "head_wins": sum(sign * (y - x) > 0 for x, y in zip(base, head)),
            "pairs": len(pairs),
            "base": b,
            "head": h,
            "median_gain": sign * (h["median"] / b["median"] - 1),
            "base_iqr_over_median": (b["q3"] - b["q1"]) / b["median"],
        }
        s["verdict"] = verdict(s, min(sign * y for y in head) > max(sign * x for x in base))
    return out


def measure(base: Path, head: Path, workload: str, seed: int, seconds: float, n: int, metrics):
    pairs, info = [], {}
    for i in range(n):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {}
        for side in order:
            run = run_once(base if side == "base" else head, workload, seed, seconds)
            pair[side] = run["result"]
            info.setdefault(side, run["info"])
        pairs.append({"base": pair["base"], "head": pair["head"], "first": order[0]})
        print(
            f"{workload} seed {seed} pair {i + 1}/{n}: ops/s base "
            f"{pair['base']['metrics']['ops_per_s']['value']:.1f}, head "
            f"{pair['head']['metrics']['ops_per_s']['value']:.1f}",
            file=sys.stderr,
        )
    traced = {"base": [], "head": []}
    for i in range(TRACED_RUNS):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            run = run_once(base if side == "base" else head, workload, seed, seconds, trace=1)
            traced[side].append(run["result"])
    layers = {side: traced_median(runs) for side, runs in traced.items()}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "info": info,
        "pairs": pairs,
        "summary": summarize(pairs, metrics),
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base, head = args.base.resolve(), args.head.resolve()
    try:
        for path in (base, head):
            check_checkout(path)
        spec = json.loads((head / "BENCHMARK.json").read_text())
        metrics = {m["name"]: m for m in spec["end_to_end"]}
        doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
        doc.update(base=str(base), head=str(head))
        entries = {(e["workload"], e["seed"]): e for e in doc.get("runs", [])}
        for workload in args.workload:
            for seed in args.seed:
                entry = measure(base, head, workload, seed, args.seconds, args.pairs, metrics)
                entries[workload, seed] = entry
                doc["runs"] = list(entries.values())
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    except Refused as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 2
    ok = True
    for e in doc["runs"]:
        layers = e.get("layers", {})
        for r in [p[side] for p in e["pairs"] for side in ("base", "head")] + list(layers.values()):
            ok = ok and r["attempted"] > 0 and r["failed"] == 0
        base_lines, head_lines = (e["info"][side]["env"]["src_lines"] for side in ("base", "head"))
        print(f"{e['workload']} seed {e['seed']} src_lines: {base_lines} -> {head_lines}")
        for name, s in e["summary"].items():
            print(
                f"{e['workload']} seed {e['seed']} {name}: median {s['base']['median']:.4g} -> "
                f"{s['head']['median']:.4g} ({s['median_gain']:+.1%}), head wins "
                f"{s['head_wins']}/{s['pairs']}, base IQR/median {s['base_iqr_over_median']:.3f}, "
                f"bound {s['bound']:g}: {s['verdict']}"
            )
        if layers:
            base_m, head_m = (layers[side]["metrics"] for side in ("base", "head"))
            for name, m in head_m.items():
                if name not in base_m:
                    continue
                print(
                    f"{e['workload']} seed {e['seed']} layer {name}: "
                    f"{base_m[name]['value']:.4g} -> {m['value']:.4g}"
                )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
