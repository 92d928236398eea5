#!/usr/bin/env python3
"""pandarus-e2e: the campaign-to-report benchmark.

Builds the benchmark program (CMakeLists.txt beside this file builds the
library from the checkout's own sources), runs one workload for one seed
and prints one JSON result as the last line of stdout:

    python3 pandarus-e2e/run.py --workload paper-8d --seed 20250401 \\
        --seconds 10 --trace 0

    {"correct": true, "attempted": 23, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ledger,
also written to <build>/ledger/<workload>-<seed>.json.  --workload all
runs every workload, long-24d included, and prints a table of the
metrics.  long-24d is too slow for BENCHMARK.json's run budget and is run
by hand.  See README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper-8d", "observed-2d", "long-24d")
DEFAULT_SEED = 20250401
# The program exits well inside this; a hung run is killed and reported.
RUN_TIMEOUT_S = 170


def build_dir():
    """Build tree: $CARGO_TARGET_DIR when set, else .bench_build, both
    relative to the checkout root."""
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def hermetic_env():
    """The caller's environment minus every PANDARUS_* knob."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PANDARUS_")}


def build():
    """Configures (once) and builds the program; returns its path.  Build
    output goes to stderr so stdout carries only the result."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("pandarus-e2e: no pandarus sources at %s" % ROOT)
    tree = build_dir() / "cmake"
    env = hermetic_env()
    if not (tree / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(tree), "--target", "pandarus-e2e",
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)
    return tree / "pandarus-e2e"


def load_reference(workload, seed):
    """Counts recorded for (workload, seed); empty for other seeds."""
    table = json.loads((BENCH_DIR / "reference.json").read_text())
    return table.get(workload, {}).get(str(seed), {})


def run(binary, workload, seed, seconds, trace, expect=None):
    """Runs the program once and returns its parsed JSON document."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(work)]
    if trace:
        ledger = build_dir() / "ledger" / ("%s-%d.json" % (workload, seed))
        ledger.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--ledger", str(ledger)]
    for name, value in sorted((expect or {}).items()):
        cmd += ["--expect", "%s=%d" % (name, value)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=hermetic_env(),
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_line(doc):
    """The benchmark's contract: correct/attempted/failed/metrics."""
    return {"correct": doc["failed"] == 0 and doc["attempted"] > 0,
            "attempted": doc["attempted"], "failed": doc["failed"],
            "metrics": doc["metrics"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = {}
    for workload in workloads:
        doc = run(binary, workload, args.seed, args.seconds, args.trace,
                  expect=load_reference(workload, args.seed))
        for failure in doc["failures"]:
            print("pandarus-e2e: %s check failed: %s" % (workload, failure),
                  file=sys.stderr)
        docs[workload] = doc

    if args.workload != "all":
        print(json.dumps(result_line(docs[args.workload])))
        return
    for workload, doc in docs.items():
        for name, metric in doc["metrics"].items():
            print("%-12s %-32s %16.6g %s"
                  % (workload, name, metric["value"], metric["unit"]))
    print(json.dumps({
        "correct": all(result_line(d)["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "metrics": {"%s/%s" % (w, n): m for w, d in docs.items()
                    for n, m in d["metrics"].items()}}))


if __name__ == "__main__":
    main()
