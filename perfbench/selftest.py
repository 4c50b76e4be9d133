#!/usr/bin/env python3
"""Self-test of the paper-workload benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload of BENCHMARK.json in smoke mode (tiny sizes, one
second) with tracing off and on, and asserts that each run passes its
correctness checks and prints exactly the metrics BENCHMARK.json names, with
their units. It then checks that a perturbed golden sigma and an emptied
Monte-Carlo confidence interval both trip the correctness check, that the
determinism store flags drift, and the statistics helpers against known
values. Exit code 0 means every assertion held.
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (the driver under test)

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def bench(args, golden=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke",
           "--seed", "1", "--seconds", "1"] + args
    if golden:
        cmd += ["--golden", golden]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 and golden is None:
        print(proc.stderr[-3000:], file=sys.stderr)
    return proc.returncode, result


def check_metrics(label, result, wanted):
    check(result is not None and set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result line has exactly correct/attempted/failed/metrics")
    if result is None:
        return
    check(result["correct"] is True and result["failed"] == 0, f"{label}: correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted is a positive integer")
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(m["name"] for m in wanted),
          f"{label}: emits every metric of BENCHMARK.json and no other")
    for m in wanted:
        got = metrics.get(m["name"], {})
        check(set(got) == {"value", "unit"} and got.get("unit") == m["unit"]
              and isinstance(got.get("value"), (int, float))
              and math.isfinite(got["value"]),
              f"{label}: {m['name']} reported in {m['unit']}")


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "golden.json")) as f:
        golden = json.load(f)

    # Statistics helpers against tabulated values.
    check(abs(run.chi2_quantile(0.975, 10) - 20.4832) < 1e-3, "chi2 0.975 quantile, 10 dof")
    check(abs(run.chi2_quantile(0.025, 10) - 3.24697) < 1e-3, "chi2 0.025 quantile, 10 dof")
    lo, hi = run.sigma_ci(1.0, 1001, 0.95)
    check(abs(lo - 0.9579) < 2e-3 and abs(hi - 1.0460) < 2e-3, "sigma CI at n=1001")
    value, pct, beyond = run.tail_percentile([float(i) for i in range(1, 101)])
    check((value, pct, beyond) == (90.0, 90, 10), "tail percentile keeps 10 rounds beyond")

    # Every workload, both modes, with the real golden values.
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            rc, result = bench(["--workload", w, "--trace", str(trace)])
            check(rc == 0, f"{w} trace={trace}: exit code 0")
            check_metrics(f"{w} trace={trace}", result,
                          spec["end_to_end"] if trace == 0 else spec["per_layer"])

    out = run.build_dir(root)
    os.makedirs(out, exist_ok=True)

    # A perturbed golden sigma must trip the golden check.
    bad = json.loads(json.dumps(golden))
    bad["sigma_pn"]["logic"] *= 1.01
    path = os.path.join(out, "golden-perturbed-sigma.json")
    with open(path, "w") as f:
        json.dump(bad, f)
    rc, result = bench(["--workload", "paper_pn", "--trace", "0"], golden=path)
    check(rc != 0 and result is not None and result["correct"] is False
          and result["failed"] >= 1, "perturbed golden sigma fails the run")

    # An emptied confidence interval must trip the Monte-Carlo check.
    bad = json.loads(json.dumps(golden))
    bad["linearization_allowance"]["opamp"] = -0.9
    path = os.path.join(out, "golden-perturbed-allowance.json")
    with open(path, "w") as f:
        json.dump(bad, f)
    rc, result = bench(["--workload", "paper_mc", "--trace", "0"], golden=path)
    check(rc != 0 and result is not None and result["correct"] is False,
          "emptied Monte-Carlo confidence interval fails the run")

    # The determinism store flags a changed record under the same key.
    store_dir = os.path.join(out, "selftest-store")
    os.makedirs(store_dir, exist_ok=True)
    store = os.path.join(store_dir, "determinism.json")
    if os.path.exists(store):
        os.remove(store)
    check(run.record_determinism(store_dir, "k", {"a": 1, "b": 2}) == [],
          "determinism store accepts a new record")
    check(run.record_determinism(store_dir, "k", {"a": 1, "b": 3}) == ["b"],
          "determinism store flags a drifted field")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
