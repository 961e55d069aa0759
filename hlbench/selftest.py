"""Smoke test of the benchmark itself.

Usage, from the repository root:  python3 hlbench/selftest.py

Runs every workload in its small variant (order 2, a 16-pair sweep), with
tracing off and on, and checks that the result line names every metric of
BENCHMARK.json with its unit and reports a correct run.  Then it runs once
against a corrupted expected digest and checks that the run counts failures.
Exits 0 when every check holds; takes about half a minute.
"""

import contextlib
import io
import json
import os
import sys

import run
import workloads


def run_tiny(workload, trace, expected_digest=None):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, tiny=True, expected_digest=expected_digest)
    if code != 0:
        raise AssertionError("%s --trace %d exited %d" % (workload, trace, code))
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(result, declared, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("%s: result keys %s" % (label, sorted(result)))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError("%s: metrics %r, declared %r" % (label, got, want))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError("%s: %s is not a number" % (label, name))


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            result = run_tiny(workload, trace)
            check_metrics(result, declared, label)
            if not result["correct"] or result["failed"]:
                raise AssertionError("%s: %d of %d failed"
                                     % (label, result["failed"], result["attempted"]))
            print("ok   %s: %d instances, every metric named with its unit"
                  % (label, result["attempted"]))
    result = run_tiny("sweep-pairs", 0, expected_digest="0" * 64)
    if result["correct"] or result["failed"] == 0:
        raise AssertionError("a corrupted digest left failed at 0")
    print("ok   corrupted digest: failed_frac %.2f"
          % (result["failed"] / result["attempted"]))
    return 0


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("selftest: run from the repository root")
    sys.exit(main())
