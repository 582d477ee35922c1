"""Self-test of the store benchmark: counts repeat exactly for a fixed seed.

Runs the traced pass of every workload twice with the same seed, each in
its own process (so with different ``PYTHONHASHSEED`` values), and checks
that both runs are correct and that every count metric is identical.  Run
from the repository root::

    python3 storebench/selftest.py [--seed N] [--workload NAME ...]

Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

#: Metrics derived from counts only (no clock); they must repeat exactly.
COUNT_METRICS = (
    "error_rate",
    "disk_bytes_per_op",
    "store.index.builds",
    "store.columns.rows_shredded_per_row_changed",
    "ivm.view.incremental_share",
    "store.wal.bytes_per_append",
    "store.snapshot.bytes",
    "store.snapshot.compactions",
    "store.pushdown.full_share",
    "store.pushdown.residual_share",
    "store.pushdown.fallback_share",
    "store.index.nav_memo_hit_ratio",
    "uxquery.prepares",
    "exec.plan_cache.hit_ratio",
    "exec.plan_cache.evictions",
    "nrc.codegen_share",
)


def traced_counts(workload: str, seed: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    counts = {name: result["metrics"][name]["value"] for name in COUNT_METRICS}
    return result, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", nargs="*", default=["read_mix", "update_mix", "cold_start"])
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload:
        first, first_counts = traced_counts(workload, args.seed)
        second, second_counts = traced_counts(workload, args.seed)
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                print(f"FAIL {workload}: {run['failed']} of {run['attempted']} operations failed")
                ok = False
        for name in COUNT_METRICS:
            if first_counts[name] != second_counts[name]:
                print(f"FAIL {workload} {name}: {first_counts[name]!r} != {second_counts[name]!r}")
                ok = False
        print(f"{workload}: {len(COUNT_METRICS)} count metrics compared")
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
