#!/usr/bin/env python3
"""Self-test of the pandarus-e2e benchmark.

    python3 pandarus-e2e/selftest.py

1. A deliberately wrong reference count fails a check: the run reports
   more failures than with the true counts, correct is false, and the
   traced check_fail_ratio is above 0.
2. The metrics the benchmark prints are exactly those BENCHMARK.json
   lists, with the same units: end_to_end untraced, per_layer traced.

It runs observed-2d, the workload that reaches every layer, for one
iteration per run; the whole test takes about a minute.  Exits 1 on any
failure.
"""
import json
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark runner beside this file)

WORKLOAD = "observed-2d"


def compare_names(declared, metrics, label, errors):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    for name in sorted(want.keys() - got.keys()):
        errors.append("%s run does not print %s" % (label, name))
    for name in sorted(got.keys() - want.keys()):
        errors.append("%s run prints %s, absent from BENCHMARK.json"
                      % (label, name))
    for name in sorted(want.keys() & got.keys()):
        if want[name] != got[name]:
            errors.append("%s: unit %s printed, %s declared"
                          % (name, got[name], want[name]))


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((run.BENCH_DIR / "reference.json").read_text())
    errors = []
    for workload in spec["workloads"]:
        if workload["name"] not in run.WORKLOADS:
            errors.append("BENCHMARK.json workload %s is not run"
                          % workload["name"])
    for workload in sorted(reference.keys() - set(run.WORKLOADS)):
        errors.append("reference.json names unknown workload " + workload)

    binary = run.build()
    seed = run.DEFAULT_SEED
    base = run.run(binary, WORKLOAD, seed, 0, False)
    compare_names(spec["end_to_end"], base["metrics"], "untraced", errors)

    good = run.run(binary, WORKLOAD, seed, 0, False, expect=base["counts"])
    if good["failed"] != base["failed"]:
        errors.append("the true reference counts failed a check: %s"
                      % good["failures"])

    wrong = dict(base["counts"])
    wrong["store.jobs"] += 1
    bad = run.run(binary, WORKLOAD, seed, 0, True, expect=wrong)
    compare_names(spec["per_layer"], bad["metrics"], "traced", errors)
    if bad["failed"] <= base["failed"] or run.result_line(bad)["correct"]:
        errors.append("a wrong reference count passed the checks")
    if not bad["metrics"].get("check_fail_ratio", {}).get("value", 0) > 0:
        errors.append("check_fail_ratio is not above 0 with a wrong count")

    for error in errors:
        print("selftest: FAIL " + error)
    if errors:
        sys.exit(1)
    print("selftest: ok (%d end-to-end and %d per-layer metrics, wrong "
          "reference detected: %d of %d checks failed)"
          % (len(spec["end_to_end"]), len(spec["per_layer"]), bad["failed"],
             bad["attempted"]))


if __name__ == "__main__":
    main()
