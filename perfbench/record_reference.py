#!/usr/bin/env python3
"""Rewrite reference.json from the current program.

    python3 perfbench/record_reference.py

Runs each workload once on the reference seed and stores the values the
gate compares (certificate norms, gap intervals, Chern marker values).
Record only at a commit whose science is known to be right: a later
change that moves these values by more than the gate's relative tolerance
counts as failed operations in every benchmark run.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wl  # noqa: E402


def main():
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=out)
    reference = {}
    try:
        for workload in wl.WORKLOADS.values():
            outcome = wl.run_call(workload, wl.REFERENCE_SEED, workdir)
            if outcome.problems:
                sys.exit(f"{workload.name}: gate failed: {outcome.problems}")
            reference[workload.name] = outcome.values
            print(f"{workload.name}: {outcome.wall_s:.2f} s, "
                  + ", ".join(f"{len(v)} {k}" for k, v in
                              outcome.values.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
