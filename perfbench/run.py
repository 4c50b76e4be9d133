#!/usr/bin/env python3
"""Paper-workload benchmark driver for psmn.

Builds the harness (perfbench/CMakeLists.txt) from the checkout's sources,
derives the workload's inputs from --seed, runs one workload for --seconds,
checks every sigma it computed, and prints the metrics as one JSON line:

    python3 perfbench/run.py --workload paper_pn --seed 1 --seconds 20 --trace 0

Run it from the repository root. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones (and writes a Chrome trace next
to the build). --smoke shrinks the workloads for the self-test. Exit code 0
means every correctness check passed; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_pn", "paper_mc", "sparse_pn")
MAX_JOBS = 4          # thread cap of every workload (pool and Monte Carlo)
CHAIN_ROWS = 4        # sparse_pn: 16 x 4 inverters, n = 68 unknowns
SMOKE_CHAIN_ROWS = 3  # n = 52, still past the 40-unknown sparse crossover
MC_STREAMS = 24       # paper_mc: distinct draw streams pooled per cycle
SMOKE_MC_STREAMS = 2
SMOKE_MC_SCALE = 0.25
TAIL_BEYOND = 10      # the tail percentile keeps at least this many rounds above
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics

def _gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x) (series / continued fraction)."""
    if x <= 0.0:
        return 0.0
    gln = math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(10000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return total * math.exp(-x + a * math.log(x) - gln)
    b = x + 1.0 - a
    c = 1.0 / 1e-300
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1e-300 if abs(d) < 1e-300 else d
        c = b + an / c
        c = 1e-300 if abs(c) < 1e-300 else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return 1.0 - math.exp(-x + a * math.log(x) - gln) * h


def chi2_cdf(x, dof):
    return _gamma_p(dof / 2.0, x / 2.0)


def chi2_quantile(p, dof):
    lo, hi = 0.0, max(10.0, dof * 10.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sigma_ci(sigma, n, level):
    """Chi-square confidence interval on a sample sigma from n samples."""
    dof = n - 1
    tail = (1.0 - level) / 2.0
    return (sigma * math.sqrt(dof / chi2_quantile(1.0 - tail, dof)),
            sigma * math.sqrt(dof / chi2_quantile(tail, dof)))


def tail_percentile(values):
    """Highest whole percentile with at least TAIL_BEYOND rounds above it
    (nearest rank). Returns (value, percentile, rounds beyond)."""
    v = sorted(values)
    n = len(v)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100.0)
        if n - rank >= TAIL_BEYOND:
            return v[rank - 1], p, n - rank
    rank = math.ceil(0.5 * n)
    return v[rank - 1], 50, n - rank


# --------------------------------------------------------------------- build

def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    return os.path.join(base, "perfbench")


def build_harness(root, out):
    if not os.path.isfile(os.path.join(root, "src", "core", "mismatch_analysis.hpp")):
        raise RuntimeError("psmn sources (src/) not found next to perfbench/")
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(MAX_JOBS)], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_harness")


def tree_hash(root):
    """Content hash of the library and benchmark sources: the key under
    which determinism records are compared."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


# ------------------------------------------------------------------ workload

def harness_args(workload, seed, smoke):
    """The program's inputs, generated from the seed. The harness itself
    never sees the seed."""
    rng = random.Random(seed)
    if workload == "paper_pn":
        order = [0, 1, 2, 3]
        rng.shuffle(order)
        return ["--order", ",".join(map(str, order))]
    if workload == "paper_mc":
        streams = SMOKE_MC_STREAMS if smoke else MC_STREAMS
        seeds = [rng.getrandbits(62) + 1 for _ in range(streams)]
        args = ["--mc-seeds", ",".join(map(str, seeds))]
        return args + (["--mc-scale", str(SMOKE_MC_SCALE)] if smoke else [])
    rows = SMOKE_CHAIN_ROWS if smoke else CHAIN_ROWS
    return ["--rows", str(rows), "--row", str(rng.randrange(rows))]


def sigma_checks(workload, data, golden):
    """Golden sigma checks, the Monte-Carlo confidence-interval check, and
    sigma_err_pct. Returns (checks, sigma_err_pct) with checks a list of
    (name, ok, detail)."""
    checks = []
    tol = golden["sigma_pn_rel_tol"]
    errs = []
    for name, value in data["sigma_pn"].items():
        want = golden["sigma_pn"][name]
        rel = abs(value / want - 1.0)
        checks.append((f"golden sigma_pn[{name}]", rel <= tol,
                       f"{value:.9g} vs golden {want:.9g} (rel {rel:.2e}, tol {tol:g})"))
        ref = golden["reference_mc"][name]["sigma"]
        errs.append(100.0 * abs(value / ref - 1.0))
    if workload == "paper_mc":
        level = golden["mc_ci_level"]
        for name, mc in data["mc"].items():
            allow = golden["linearization_allowance"][name]
            pn = data["sigma_pn"][name]
            if not mc["complete"] or mc["n"] < 3:
                checks.append((f"mc ci[{name}]", False, "incomplete Monte-Carlo cycle"))
                continue
            lo, hi = sigma_ci(mc["sigma"], mc["n"], level)
            lo, hi = lo * (1.0 - allow), hi * (1.0 + allow)
            checks.append((f"mc ci[{name}]", lo <= pn <= hi,
                           f"sigma_pn {pn:.6g} in [{lo:.6g}, {hi:.6g}] "
                           f"(MC sigma {mc['sigma']:.6g}, n={mc['n']}, "
                           f"{100 * level:g}% CI widened by {100 * allow:g}%)"))
    return checks, max(errs)


def record_determinism(out, key, record):
    """Compares `record` with the one stored under `key` by an earlier run
    of the same sources and seed; stores it when new. Returns the names of
    fields that drifted."""
    path = os.path.join(out, "determinism.json")
    store = {}
    if os.path.isfile(path):
        with open(path) as f:
            store = json.load(f)
    old = store.get(key)
    if old is None:
        store[key] = record
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(store, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    return sorted(k for k in set(old) | set(record) if old.get(k) != record.get(k))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (self-test); golden checks still apply")
    ap.add_argument("--golden", default=os.path.join(BENCH_DIR, "golden.json"),
                    help="golden values file (the self-test passes a perturbed copy)")
    args = ap.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(args.golden) as f:
        golden = json.load(f)
    out = build_dir(root)
    harness = build_harness(root, out)

    jobs = min(MAX_JOBS, len(os.sched_getaffinity(0)))
    cmd = [harness, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--jobs", str(jobs)]
    cmd += harness_args(args.workload, args.seed, args.smoke)
    if args.trace:
        cmd += ["--trace-out", os.path.join(out, f"trace-{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])

    checks = [(f"harness: {p}", False, "") for p in data["problems"]]
    sig_checks, sigma_err = sigma_checks(args.workload, data, golden)
    checks += sig_checks

    if args.trace == 0:
        # Times at the reference machine speed: each round and set-up is
        # scaled by calibration_ref_s / its bracketing calibration time.
        ref = golden["calibration_ref_s"]
        rounds = [t * ref / c for t, c in zip(data["round_s"], data["round_cal_s"])]
        setups = [t * ref / c for t, c in zip(data["setup_s"], data["setup_cal_s"])]
        tail, pct, beyond = tail_percentile(rounds)
        values = {
            "setup_s": statistics.median(setups),
            "round_s_p50": statistics.median(rounds),
            "round_s_tail": tail,
            "items_per_s": data["items_per_round"] * len(rounds) / sum(rounds),
            "sigma_err_pct": sigma_err,
            "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
        }
        wanted = spec["end_to_end"]
        log(f"{args.workload}: {len(rounds)} rounds, tail = p{pct} "
            f"({beyond} rounds beyond it); raw wall round p50 "
            f"{statistics.median(data['round_s']):.4f} s, set-up "
            f"{statistics.median(data['setup_s']):.4f} s, calibration p50 "
            f"{statistics.median(data['round_cal_s']) * 1e3:.2f} ms "
            f"(reference {ref * 1e3:g} ms)")
        if args.workload == "paper_mc":
            for name, mc in data["mc"].items():
                speedup = mc["seconds_per_sample"] * 1000.0 / data["pn_seconds"][name]
                log(f"  {name}: sigma pn/MC = {data['sigma_pn'][name] / mc['sigma']:.4f} "
                    f"(n={mc['n']}), speedup vs MC-1k at {jobs} jobs = {speedup:.0f}x")
        record = {"sigma_err_pct": sigma_err, "sigma_pn": data["sigma_pn"]}
        if "mc" in data:
            record["mc_sigma"] = {k: v["sigma"] for k, v in data["mc"].items()}
    else:
        values = dict(data["layers"])
        wanted = spec["per_layer"]
        log(f"{args.workload}: traced-round p50 {data['round_s_traced_p50']:.4f} s vs "
            f"untraced {data['round_s_untraced_p50']:.4f} s "
            f"(overhead {values['trace.overhead_pct']:.1f}%)")
        record = {"counts": data["counts"], "sigma_err_pct": sigma_err}
    key = f"{args.workload}|seed={args.seed}|trace={args.trace}|smoke={args.smoke}|" \
          f"src={tree_hash(root)}"
    drift = record_determinism(out, key, record)
    checks.append(("determinism vs earlier run", not drift,
                   f"drifted: {', '.join(drift)}" if drift else ""))

    for name, ok, detail in checks:
        if not ok:
            log(f"CHECK FAILED {name} {detail}")
    failed_checks = sum(1 for _, ok, _ in checks if not ok)
    correct = failed_checks == 0 and data["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(data["attempted"]) + len(checks),
        "failed": int(data["failed"]) + failed_checks,
        "metrics": {m["name"]: metric(values[m["name"]], m["unit"]) for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
