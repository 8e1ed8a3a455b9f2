"""Fast self-check of the benchmark: every workload at toy size.

    python3 bench/selfcheck.py

Runs each workload untraced and traced with --toy, and asserts that the
result line is well formed, correct, and carries exactly the metric names
BENCHMARK.json declares.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    # derive is not in BENCHMARK.json but stays runnable, so it is checked too
    for workload in ("search", "suite", "derive", "cli"):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            *_, provenance, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == wanted[trace], (workload, trace, units)
            assert "reference_sha256" in json.loads(provenance)
            print(f"ok {workload} trace={trace}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
