"""Record the digests every benchmark seed is checked against.

    python3 perfbench/record.py

Runs every document of every workload pool once through the CLI, applies the
semantic output checks, and writes `expected.json`: for each document key, the
SHA-256 prefix of the document and of its stdout.  Rerun this only in a change
that redefines the benchmark; a change to the program must leave the recorded
outputs valid.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    cli = run.import_program()
    checker = workloads.Checker(run.ROOT, {})
    ops = workloads.pool()
    expected = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        run.write_documents(ops, Path(tmp))
        for op in ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main([op.command, op.path])
            expected[op.key] = [workloads.digest(op.text), workloads.digest(out.getvalue())]
            checker.expected = expected
            why = checker.check(op, rc, out.getvalue())
            if why is not None:
                print(f"{op.key}: {why}", file=sys.stderr)
                return 1
    workloads.EXPECTED.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} documents")
    return 0


if __name__ == "__main__":
    sys.exit(main())
