#!/usr/bin/env python3
"""Validate netlist_runner's machine-readable outputs in CI.

Checks two files produced by a ``--metrics``/``--trace`` run:

* the metrics report (``--metrics out.json``) against the schema documented
  in docs/user_guide.md "Run reports": required top-level keys, the full
  counter and phase-timer key sets (they are a CI contract — renaming a
  counter breaks trend tooling), per-analysis SolveStats shape, and — when
  a sweep section is present — per-scenario consistency (attempts >= 1,
  failed scenarios carry an error string, counts add up);
* the Chrome trace file (``--trace out.json``) for trace-event-format
  well-formedness: a traceEvents array of complete ("X") events with
  numeric ts/dur >= 0 and, per (pid, tid) track, proper span nesting —
  overlapping non-nested events render as garbage in Perfetto.

Pure stdlib, exit 0 on success, 1 with a message per violation.

Usage:  check_run_report.py --metrics metrics.json [--trace trace.json]
"""

import argparse
import json
import sys

COUNTER_KEYS = {
    "dense_factors", "sparse_factors", "sparse_refactors",
    "factor_nnz_total", "solve_columns", "mna_evals", "newton_iterations",
    "steps_accepted", "scenarios_run", "scenario_retries",
}
PHASE_KEYS = {
    "parse", "dc", "transient", "sensitivity", "pss", "lptv", "pnoise",
    "mc", "scenario", "step", "newton", "kernel",
}
SOLVE_STATS_KEYS = {
    "newton_iterations", "steps", "factorizations", "refactorizations",
    "solves", "evals", "factor_nnz",
}


def is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_solve_stats(stats, where, errors):
    if not isinstance(stats, dict):
        errors.append(f"{where}: stats is not an object")
        return
    if set(stats) != SOLVE_STATS_KEYS:
        errors.append(f"{where}: stats keys {sorted(stats)} != "
                      f"{sorted(SOLVE_STATS_KEYS)}")
    for k, v in stats.items():
        if not is_uint(v):
            errors.append(f"{where}: stats.{k} = {v!r} is not a uint")


def check_metrics(path, errors):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        errors.append(f"metrics: unreadable ({e})")
        return
    if not isinstance(doc, dict):
        errors.append("metrics: top level is not an object")
        return

    for key in ("schema_version", "deck", "jobs", "counters", "phase_ns",
                "analyses"):
        if key not in doc:
            errors.append(f"metrics: missing required key '{key}'")
    if doc.get("schema_version") != 1:
        errors.append(f"metrics: schema_version {doc.get('schema_version')!r}"
                      " != 1")
    if not is_uint(doc.get("jobs", -1)) or doc.get("jobs") == 0:
        errors.append(f"metrics: jobs {doc.get('jobs')!r} is not a "
                      "positive integer")

    counters = doc.get("counters", {})
    if isinstance(counters, dict):
        if set(counters) != COUNTER_KEYS:
            errors.append(f"metrics: counter keys {sorted(counters)} != "
                          f"{sorted(COUNTER_KEYS)}")
        for k, v in counters.items():
            if not is_uint(v):
                errors.append(f"metrics: counters.{k} = {v!r} is not a uint")
    else:
        errors.append("metrics: counters is not an object")

    phases = doc.get("phase_ns", {})
    if isinstance(phases, dict):
        if set(phases) != PHASE_KEYS:
            errors.append(f"metrics: phase_ns keys {sorted(phases)} != "
                          f"{sorted(PHASE_KEYS)}")
    else:
        errors.append("metrics: phase_ns is not an object")

    analyses = doc.get("analyses", [])
    if isinstance(analyses, list):
        for i, a in enumerate(analyses):
            if not isinstance(a, dict) or "name" not in a or "stats" not in a:
                errors.append(f"metrics: analyses[{i}] needs name + stats")
                continue
            check_solve_stats(a["stats"], f"analyses[{i}] ({a['name']})",
                              errors)
    else:
        errors.append("metrics: analyses is not an array")

    if "sweep" in doc:
        check_sweep(doc["sweep"], errors)


def check_sweep(sweep, errors):
    if not isinstance(sweep, dict):
        errors.append("metrics: sweep is not an object")
        return
    for key in ("scenarios", "failed", "recovered", "total_attempts",
                "stats", "per_scenario"):
        if key not in sweep:
            errors.append(f"metrics: sweep missing '{key}'")
            return
    check_solve_stats(sweep["stats"], "sweep", errors)
    per = sweep["per_scenario"]
    if not isinstance(per, list) or len(per) != sweep["scenarios"]:
        errors.append("metrics: per_scenario length != sweep.scenarios")
        return
    failed = recovered = attempts = 0
    for i, sc in enumerate(per):
        where = f"per_scenario[{i}]"
        for key in ("name", "ok", "attempts", "recovered", "stats"):
            if key not in sc:
                errors.append(f"metrics: {where} missing '{key}'")
                return
        if not is_uint(sc["attempts"]) or sc["attempts"] < 1:
            errors.append(f"metrics: {where}.attempts {sc['attempts']!r} < 1")
        if not sc["ok"]:
            failed += 1
            if not sc.get("error"):
                errors.append(f"metrics: {where} failed without an error")
        if sc["recovered"]:
            recovered += 1
            if sc["attempts"] < 2:
                errors.append(f"metrics: {where} recovered on attempt 1")
        attempts += sc["attempts"]
        check_solve_stats(sc["stats"], where, errors)
    if failed != sweep["failed"]:
        errors.append(f"metrics: sweep.failed {sweep['failed']} != "
                      f"counted {failed}")
    if recovered != sweep["recovered"]:
        errors.append(f"metrics: sweep.recovered {sweep['recovered']} != "
                      f"counted {recovered}")
    if attempts != sweep["total_attempts"]:
        errors.append(f"metrics: sweep.total_attempts "
                      f"{sweep['total_attempts']} != counted {attempts}")


def check_trace(path, errors):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        errors.append(f"trace: unreadable ({e})")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        errors.append("trace: traceEvents is not an array")
        return
    tracks = {}
    for i, ev in enumerate(events):
        if ev.get("ph") != "X":
            errors.append(f"trace: event {i} is not a complete ('X') event")
            continue
        for key in ("name", "cat", "ts", "dur", "pid", "tid"):
            if key not in ev:
                errors.append(f"trace: event {i} missing '{key}'")
        ts, dur = ev.get("ts", -1), ev.get("dur", -1)
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"trace: event {i} ts {ts!r} is not >= 0")
            continue
        if not isinstance(dur, (int, float)) or dur < 0:
            errors.append(f"trace: event {i} dur {dur!r} is not >= 0")
            continue
        tracks.setdefault((ev.get("pid"), ev.get("tid")), []).append(
            (ts, ts + dur, ev.get("name")))
    for track, spans in tracks.items():
        for a in range(len(spans)):
            for b in range(a + 1, len(spans)):
                s0, e0, n0 = spans[a]
                s1, e1, n1 = spans[b]
                disjoint = e0 <= s1 or e1 <= s0
                nested = (s0 <= s1 and e1 <= e0) or (s1 <= s0 and e0 <= e1)
                if not (disjoint or nested):
                    errors.append(
                        f"trace: track {track}: '{n0}' [{s0},{e0}) overlaps "
                        f"'{n1}' [{s1},{e1}) without nesting")
    print(f"trace: {len(events)} events on {len(tracks)} track(s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--metrics", required=True, help="metrics report JSON")
    ap.add_argument("--trace", default=None, help="Chrome trace JSON")
    args = ap.parse_args()

    errors = []
    check_metrics(args.metrics, errors)
    if args.trace:
        check_trace(args.trace, errors)

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("run report OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
