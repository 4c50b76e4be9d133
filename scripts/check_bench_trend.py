#!/usr/bin/env python3
"""Fail CI when a hot-path benchmark regresses against the committed baseline.

Compares a fresh ``bench_kernels`` JSON run against
``bench/baseline/bench_kernels.json``. Absolute timings are useless across
machines (laptop vs CI runner), so every benchmark is first normalized by
an anchor benchmark measured in the *same* run (a dense LU factorization,
which exercises pure FLOPs and cache and tracks overall machine speed).
The check fails when

    (current[name] / current[anchor]) / (baseline[name] / baseline[anchor])

exceeds ``--threshold`` (default 1.25, the ROADMAP "perf trajectory" bar)
for any hot-path benchmark present in both files.

Deterministic counters: benchmarks that emit machine-independent cost
counters are additionally gated on them, compared *un-normalized* against
the baseline (they are pure functions of the algorithm, not the runner):

* ``factor_nnz`` — nnz(L+U) of the sparse factor/refactor kernels and the
  sparse transient steps. A regression means the column ordering got
  worse, not that the runner was slow.
* ``newton_iters`` / ``lu_factors`` / ``lu_refactors`` — per-run Newton
  iteration and LU (re)factorization counts of the full-run benches
  (``BM_TranSens*``, ``BM_PssShooting*``, the op-amp deck), from the
  engines' SolveStats. A regression means convergence got worse or a
  pattern-reuse path stopped being taken.
* ``solve_cols`` — triangular-solve columns of ``BM_PssShootingSparse``
  (SolveStats::solves). Its solves close on the first period, so the count
  is the Newton iterations' one column each; sweeping the monodromy of the
  converged period again would multiply it several times over.

All counter gates share ``--counter-threshold`` (default 1.05, the
``factor_nnz`` precedent — deterministic, so the bar is tight).

Trend history: ``--prev PATH`` additionally diffs the current run against
the previous CI run's artifact (downloaded by the workflow) across *all*
benchmarks the two runs share — the per-PR trajectory, not just the
absolute bar. The prev diff is informational (run-to-run noise on shared
runners is well above the baseline threshold); it never fails the job, and
a missing or unreadable prev file is reported and skipped so the first run
on a branch still passes.

Regenerate the baseline after an intentional perf change:

    ./build/bench_kernels --benchmark_format=json \
        --benchmark_out=bench/baseline/bench_kernels.json \
        --benchmark_out_format=json
"""

import argparse
import json
import sys

# The benchmarks that guard the product's hot paths: transient stepping,
# sparse multi-RHS solves (sensitivity, monodromy-sweep and LPTV columns;
# real and complex), sparse refactorization, shooting PSS, the
# end-to-end BJT op-amp deck (bench_bjt_opamp, gated in its own CI step),
# and the parallel-runtime fan-outs (bench_runtime, gated in its own CI
# step with --anchor BM_SweepScaling/8/1 — each suite normalizes by an
# anchor measured in the SAME binary, so suites never cross-contaminate).
HOT_PREFIXES = (
    "BM_TransientStep",
    "BM_TranSens",
    "BM_SparseLuRefactor",
    "BM_SparseLuSolveMulti",
    "BM_PssShooting",
    "BM_BjtOpAmp",
    "BM_SweepScaling",
    "BM_SensitivityParallel",
    "BM_MonodromyParallel",
)
ANCHOR = "BM_DenseLuFactor/64"

# Machine-independent counters gated un-normalized against the baseline.
GATED_COUNTERS = ("factor_nnz", "newton_iters", "lu_factors", "lu_refactors",
                  "solve_cols")


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows
        out[b["name"]] = float(b["real_time"])
    return out


def load_counter(path, counter):
    """name -> value for benchmarks that emit the given counter."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        if counter in b:
            out[b["name"]] = float(b[counter])
    return out


def check_counter(cur_path, base_path, counter, threshold):
    """Un-normalized counter comparison; returns failing benchmark names."""
    current = load_counter(cur_path, counter)
    baseline = load_counter(base_path, counter)
    common = sorted(set(current) & set(baseline))
    if not common:
        print(f"\ncounter trend: no {counter} counters in common; skipping")
        return []
    failures = []
    print(f"\n{counter} vs baseline ({len(common)} benchmarks, "
          f"un-normalized, fail past {threshold:.2f}x):")
    for name in common:
        base = baseline[name]
        if base > 0:
            ratio = current[name] / base
        else:  # 0 -> 0 is clean (dense benches emit zero refactors)
            ratio = 1.0 if current[name] == 0 else float("inf")
        verdict = "FAIL" if ratio > threshold else "  ok"
        print(f"{verdict}  {name:<40} {counter} {current[name]:8.0f} "
              f"(baseline {base:8.0f}, {ratio:5.2f}x)")
        if ratio > threshold:
            failures.append(f"{name}:{counter}")
    return failures


def diff_against_previous(current, prev_path, anchor):
    """Informational normalized diff against the previous run's artifact."""
    try:
        prev = load(prev_path)
    except (OSError, ValueError, KeyError) as e:
        print(f"trend history: no usable previous artifact ({e}); skipping")
        return
    if anchor not in prev or anchor not in current:
        print("trend history: anchor missing from previous run; skipping")
        return
    common = sorted(set(prev) & set(current))
    if not common:
        print("trend history: no benchmarks in common with previous run")
        return
    print(f"\ntrend vs previous run ({len(common)} benchmarks, normalized, "
          "informational):")
    for name in common:
        ratio = (current[name] / current[anchor]) / (prev[name] / prev[anchor])
        marker = "+" if ratio > 1.05 else ("-" if ratio < 0.95 else " ")
        print(f"  {marker} {name:<44} {ratio:5.2f}x previous")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="fresh bench_kernels JSON")
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("--threshold", type=float, default=1.25,
                    help="fail when normalized ratio exceeds this (1.25 = +25%%)")
    ap.add_argument("--counter-threshold", "--fill-threshold",
                    dest="counter_threshold", type=float, default=1.05,
                    help="fail when a gated deterministic counter "
                         "(factor_nnz, newton_iters, lu_factors, "
                         "lu_refactors) exceeds baseline by this ratio")
    ap.add_argument("--prev", default=None,
                    help="previous CI run's bench JSON (informational "
                         "per-PR trend history; missing file is skipped)")
    ap.add_argument("--anchor", default=ANCHOR,
                    help="normalization anchor benchmark; must exist in the "
                         "same binary's output (default: %(default)s for "
                         "bench_kernels; bench_runtime uses "
                         "BM_SweepScaling/8/1)")
    args = ap.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)
    for name, table in (("current", current), ("baseline", baseline)):
        if args.anchor not in table:
            print(f"error: anchor {args.anchor} missing from {name} run",
                  file=sys.stderr)
            return 2

    cur_anchor = current[args.anchor]
    base_anchor = baseline[args.anchor]
    print(f"anchor {args.anchor}: current {cur_anchor:.0f} ns, "
          f"baseline {base_anchor:.0f} ns")

    failures = []
    checked = 0
    for name in sorted(baseline):
        if not name.startswith(HOT_PREFIXES) or name not in current:
            continue
        checked += 1
        ratio = (current[name] / cur_anchor) / (baseline[name] / base_anchor)
        verdict = "FAIL" if ratio > args.threshold else "  ok"
        print(f"{verdict}  {name:<40} {ratio:5.2f}x baseline (normalized)")
        if ratio > args.threshold:
            failures.append(name)

    if checked == 0:
        print("error: no hot-path benchmarks in common", file=sys.stderr)
        return 2

    counter_failures = []
    for counter in GATED_COUNTERS:
        counter_failures += check_counter(args.current, args.baseline,
                                          counter, args.counter_threshold)

    if args.prev:
        diff_against_previous(current, args.prev, args.anchor)

    if failures or counter_failures:
        if failures:
            print(f"\n{len(failures)} hot-path regression(s) past "
                  f"{args.threshold:.2f}x: {', '.join(failures)}",
                  file=sys.stderr)
        if counter_failures:
            print(f"\n{len(counter_failures)} counter regression(s) past "
                  f"{args.counter_threshold:.2f}x: "
                  f"{', '.join(counter_failures)}",
                  file=sys.stderr)
        return 1
    print(f"\nall {checked} hot-path benchmarks within "
          f"{args.threshold:.2f}x of baseline; deterministic counters "
          f"within {args.counter_threshold:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
