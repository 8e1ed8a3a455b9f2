"""invder benchmark: one workload, one seed, one fresh interpreter.

    python3 bench/run.py --workload search --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The workload runs in a child interpreter (`workloads.py`), so
imports and caches never carry over between runs, and the child's peak
resident size is read from its rusage when it exits.  Workloads: search,
suite, cli, and derive, which BENCHMARK.json leaves out (see README.md).

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run.  The line
before it is the provenance of the run: git commit, processor count,
Python version, seed, INVDER_MAX_DIM, sample counts, the percentile
the call timings support, the report SHA-256 and the exit codes.  On every
seed the hash of the workload's fixed reference calls is compared with
`expected.json`; on the default seed the whole report hash and the exit
codes are too.  A mismatch fails every operation of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("search", "suite", "derive", "cli")
MAX_DIM = "6"
CHILD_TIMEOUT_S = 170



def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git clone."""
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def recorded(workload: str) -> tuple[int, dict]:
    """The default seed and the hashes and exit codes recorded for it."""
    with open(os.path.join(BENCH_DIR, "expected.json"),
              encoding="utf-8") as fh:
        data = json.load(fh)
    return data["seed"], data["workloads"][workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "invder", "__init__.py")):
        print(f"error: no invder sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=SRC, INVDER_MAX_DIM=MAX_DIM)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.toy:
        cmd.append("--toy")
    # its own session, so a timeout also stops the CLI commands it started
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            print(f"error: workload exceeded {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
    if child.returncode != 0 or not stdout.strip():
        print(f"error: workload exited with {child.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(stdout.strip().splitlines()[-1])
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    attempted, failed = result["attempted"], result["failed"]
    if not result["deterministic"]:
        failed = attempted
    default_seed, expected = recorded(args.workload)
    full_checked = args.seed == default_seed and not args.toy
    hash_ok = expected["reference_sha256"] == result["reference_sha256"]
    if full_checked:
        hash_ok = hash_ok and expected["sha256"] == result["sha256"] \
            and expected["exit_codes"] == result["exit_codes"]
    if not hash_ok:
        print("error: report hash or exit codes differ from expected.json",
              file=sys.stderr)
        failed = attempted

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "invder_max_dim": MAX_DIM,
        "size": result["size"], "import_s": result["import_s"],
        "build_s": result["build_s"], "pass_wall_s": result["pass_wall_s"],
        "call_samples": len(result["call_ms"]),
        "call_ms": result["call_ms"],
        "percentile_supported": result["percentile_support"],
        "report_sha256": result["sha256"],
        "reference_sha256": result["reference_sha256"],
        "full_report_checked": full_checked,
        "exit_codes": {"workload": child.returncode,
                       "commands": result["exit_codes"]},
        "failed_ratio": failed / attempted,
    }
    print(json.dumps(provenance, sort_keys=True))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        values, declared = result["layers"], spec["per_layer"]
    else:
        values = dict(result, peak_rss_mb=peak_rss_mb)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
