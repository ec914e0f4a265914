"""noksurf benchmark: one workload, closed loop, one client, in one process.

    python3 perfbench/run.py --workload small-docs --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout.  Every operation is
`noksurf.cli.main([command, document])` called in-process with stdout
captured; the package is imported from the checkout's `src/` and nowhere
else.  With `--trace 0` the last stdout line reports the end-to-end metrics,
with `--trace 1` the per-layer metrics of a separate traced run.  See
README.md in this directory for the workloads, the metrics and the noise.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
CALIBRATION_S = 0.006  # typical calibrate() time on the reference host
CALIBRATE_EVERY_S = 0.05
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import noksurf.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    if not (SRC / "noksurf" / "cli.py").is_file():
        raise BenchError(f"no noksurf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import noksurf.cli

    if Path(noksurf.cli.__file__).resolve().parent != (SRC / "noksurf").resolve():
        raise BenchError(f"noksurf imported from {noksurf.cli.__file__}, not {SRC}")
    return noksurf.cli


def environment() -> dict:
    """Informational only: nothing here is gated."""
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = res.stdout.strip() or None
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "noksurf").glob("*.py")))
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": lines,
    }


def write_documents(ops, workdir: Path) -> None:
    for i, op in enumerate(ops):
        if not op.path:
            op.path = str(workdir / f"{i:04d}.json")
            Path(op.path).write_text(op.text, encoding="utf-8")


def setup_seconds(ops) -> float:
    """Median of: fresh-interpreter `import noksurf.cli` plus loading and
    validating every document of the workload into a SurfaceModel."""
    from noksurf import docio
    from noksurf.toric import fan_to_model

    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        res = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if res.returncode != 0:
            raise BenchError(f"fresh interpreter cannot import noksurf.cli: {res.stderr.strip()}")
        t0 = time.perf_counter()
        for op in ops:
            doc = docio.load_document(op.path)
            if "surface" in doc:
                docio.parse_surface(doc)
            else:
                fan_to_model(docio.parse_fan(doc))
        seconds = float(res.stdout) + time.perf_counter() - t0
        samples.append(scaled(seconds, before, calibrate()))
    return statistics.median(samples)


# A fixed rank-32 form and three rational classes for calibrate(); the form
# is diagonal (1, -1, ..., -1) plus some off-diagonal ones, like a blowup model.
_CAL_FORM = [
    [1 if i == j == 0 else -1 if i == j else 1 if (i * j) % 7 == 1 else 0 for j in range(32)]
    for i in range(32)
]
_CAL_CLASSES = [tuple(Fraction((i * k) % 5 - 2, 1 + k % 3) for i in range(32)) for k in range(3)]


def calibrate() -> float:
    """Seconds that pairing fixed classes through a fixed form takes now.

    The host's speed drifts by tens of percent within seconds (other tenants
    share the cores), so every time the benchmark reports is divided by this
    loop's time measured around it.  The loop is a frozen copy of the shape
    of the program's hottest code, the intersection pairing: `Fraction`
    arithmetic over rows of Python ints.  It tracks the program's slowdowns
    far better than a plain integer loop, and it calls nothing the program
    defines.  The garbage collector is off while it runs, so the size of the
    program's heap cannot change what it measures.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        for u in _CAL_CLASSES:
            for v in _CAL_CLASSES:
                total = Fraction(0)
                for i, ui in enumerate(u):
                    if ui == 0:
                        continue
                    row = _CAL_FORM[i]
                    acc = Fraction(0)
                    for j, vj in enumerate(v):
                        if vj != 0 and row[j] != 0:
                            acc = acc + row[j] * vj
                    total = total + ui * acc
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` as it would read on a host where `calibrate()` takes CALIBRATION_S."""
    return seconds * 2 * CALIBRATION_S / (before + after)


class Runner:
    """Runs operations through the CLI entry point and checks each output."""

    def __init__(self, cli, checker: workloads.Checker):
        self.cli = cli
        self.checker = checker
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrations: list[float] = []
        self.unscaled_rates: list[float] = []

    def run_op(self, op) -> float:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = self.cli.main([op.command, op.path])
            dt = time.perf_counter() - t0
        self.attempted += 1
        why = self.checker.check(op, rc, out.getvalue())
        if why is not None:
            self.failures.append(f"{op.key}: {why} {err.getvalue().strip()}")
        return dt

    def passes(self, ops, seconds: float, latencies: list | None = None, on_op=None) -> list[float]:
        """Whole passes until `seconds` have elapsed; scaled ops/s of each pass.

        Operations run in slices of at least CALIBRATE_EVERY_S; each slice is
        timed between two calibrations and scaled by their mean.  `latencies`
        receives the scaled seconds of every operation.
        """
        rates = []
        self.unscaled_rates = []
        start = time.perf_counter()
        while not rates or time.perf_counter() - start < seconds:
            busy = raw = 0.0
            before = calibrate()
            pending: list[float] = []
            for i, op in enumerate(ops):
                if on_op is not None:
                    on_op(i)
                pending.append(self.run_op(op))
                if sum(pending) < CALIBRATE_EVERY_S and i + 1 < len(ops):
                    continue
                after = calibrate()
                self.calibrations.append(after)
                for dt in pending:
                    raw += dt
                    dt = scaled(dt, before, after)
                    busy += dt
                    if latencies is not None:
                        latencies.append(dt)
                before, pending = after, []
            rates.append(len(ops) / busy)
            self.unscaled_rates.append(len(ops) / raw)
        return rates


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    cli = import_program()
    ops = workloads.build(name, seed, ROOT, tiny)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        write_documents(ops, workdir)
        setup = setup_seconds(ops)
        runner = Runner(cli, workloads.Checker(ROOT, workloads.load_expected()))
        runner.passes(ops, 0)  # warm-up pass, checked but not timed
        if not trace:
            latencies: list[float] = []
            rates = runner.passes(ops, seconds, latencies)
            q = statistics.quantiles(latencies, n=10)
            metrics = {
                "setup_s": (setup, "s"),
                "ops_per_s": (statistics.median(rates), "1/s"),
                "op_ms_p50": (1000 * statistics.median(latencies), "ms"),
                "op_ms_p90": (1000 * q[8], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            unscaled = statistics.median(runner.unscaled_rates)
        else:
            metrics = traced(runner, ops, seconds, name, seed)
            unscaled = None
        info = {
            "workload": name,
            "seed": seed,
            "ops_per_pass": len(ops),
            "error_rate": len(runner.failures) / runner.attempted,
            "failures": runner.failures[:10],
            "calibration_ms": 1000 * statistics.median(runner.calibrations),
            "unscaled_ops_per_s": unscaled,
            "env": environment(),
        }
        return {
            "info": info,
            "result": {
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(runner: Runner, ops, seconds: float, name: str, seed: int) -> dict:
    """Half the time untraced, half traced; per-layer figures from the spans."""
    untraced = statistics.median(runner.passes(ops, seconds / 2))
    tracer = tracing.Tracer()
    op_commands: list[str] = []
    op_keys: list[str] = []

    def on_op(i):
        tracer.op = len(op_commands)
        op_commands.append(ops[i].command)
        op_keys.append(ops[i].key)

    tracer.install()
    try:
        rate = statistics.median(runner.passes(ops, seconds / 2, on_op=on_op))
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{name}-{seed}.json", list(zip(op_keys, op_commands)))
    layer = tracing.layer_metrics(tracer.names, tracer.spans, op_commands, untraced, rate)
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    return {k: (v, units[k]) for k, v in layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report["info"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
