#!/usr/bin/env python3
"""CLI integration tests for the built netlist_runner binary.

Each CTest `cli_<case>` invocation runs ONE case from this file against
the real executable: card-mode runs, seeded sweeps and their --jobs
determinism, run-report generation (validated with
scripts/check_run_report.py's own checkers, so the CLI tier and CI enforce
the identical schema), and the bad-input exit codes scripted flows depend
on.

Usage: cli_test.py --runner <netlist_runner> --repo <repo root> <case>
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

DECK = "examples/decks/bjt_diffamp.sp"
SWEEP = ["--sweep", "mc:4", "--jobs", "1", "--seed", "1", "--probe", "out"]


def load_report_checker(repo):
    path = os.path.join(repo, "scripts", "check_run_report.py")
    spec = importlib.util.spec_from_file_location("check_run_report", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Cli:
    def __init__(self, runner, repo, tmp):
        self.runner = runner
        self.repo = repo
        self.tmp = tmp
        self.checker = load_report_checker(repo)

    def run(self, *args):
        return subprocess.run([self.runner] + list(args), cwd=self.tmp,
                              capture_output=True, text=True, timeout=480)

    def deck(self):
        return os.path.join(self.repo, DECK)

    def check_report(self, metrics=None, trace=None):
        errors = []
        if metrics is not None:
            self.checker.check_metrics(metrics, errors)
        if trace is not None:
            self.checker.check_trace(trace, errors)
        assert not errors, "\n".join(errors)


def expect(cond, what, proc):
    assert cond, (f"{what}\nexit={proc.returncode}\n"
                  f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")


def sweep_lines(stdout):
    """The per-scenario `mc<k> v(out) = ...` lines plus the summary."""
    return [ln.strip() for ln in stdout.splitlines()
            if "v(out) = " in ln or ln.startswith("summary:")]


def pnoise_lines(stdout):
    """Each `.pnoise` sigma line followed by its indented breakdown lines."""
    out = []
    in_breakdown = False
    for ln in stdout.splitlines():
        if ln.startswith(".pnoise"):
            out.append(ln.strip())
            in_breakdown = True
        elif in_breakdown and ln.startswith("  "):
            out.append(ln.strip())
        else:
            in_breakdown = False
    return out


# ---------------------------------------------------------------- cases

def case_card_demo(cli):
    """No arguments: the built-in demo deck runs its cards and exits 0."""
    p = cli.run()
    expect(p.returncode == 0, "demo run failed", p)
    expect("built-in demo" in p.stdout, "missing demo banner", p)
    expect("title:" in p.stdout, "missing title line", p)


def case_card_deck(cli):
    """Card mode over a real deck, with a validated metrics report."""
    metrics = os.path.join(cli.tmp, "metrics.json")
    p = cli.run(cli.deck(), "--metrics", metrics)
    expect(p.returncode == 0, "card run failed", p)
    expect("title: bjt differential amplifier" in p.stdout,
           "deck title missing", p)
    cli.check_report(metrics=metrics)
    doc = json.load(open(metrics))
    expect(doc["analyses"], "card mode must record analyses", p)


def case_card_pnoise_jobs(cli):
    """Card mode's .pss/.pnoise flow runs on the RF pool with --jobs: the
    demo deck must print the same sigma and breakdown, and count the same
    work, at --jobs 4 as at --jobs 1."""
    out = {}
    for jobs in (1, 4):
        metrics = os.path.join(cli.tmp, f"metrics{jobs}.json")
        p = cli.run("--jobs", str(jobs), "--metrics", metrics)
        expect(p.returncode == 0, f"jobs={jobs} demo run failed", p)
        cli.check_report(metrics=metrics)
        lines = pnoise_lines(p.stdout)
        expect(len(lines) >= 2 and "sigma" in lines[0],
               f"jobs={jobs}: missing .pnoise sigma/breakdown", p)
        out[jobs] = (json.load(open(metrics)), lines)
    m1, lines1 = out[1]
    m4, lines4 = out[4]
    assert lines1 == lines4, (
        f".pnoise output differs between jobs=1 and jobs=4:\n{lines1}\nvs\n"
        f"{lines4}")
    assert m1["counters"] == m4["counters"], (
        f"counters differ between jobs=1 and jobs=4:\n{m1['counters']}\nvs\n"
        f"{m4['counters']}")


def case_sweep_mc(cli):
    """In-process seeded sweep: report schema + per-scenario accounting."""
    metrics = os.path.join(cli.tmp, "metrics.json")
    p = cli.run(cli.deck(), *SWEEP, "--metrics", metrics)
    expect(p.returncode == 0, "sweep failed", p)
    cli.check_report(metrics=metrics)
    doc = json.load(open(metrics))
    sweep = doc["sweep"]
    expect(sweep["scenarios"] == 4, "expected 4 scenarios", p)
    expect(sweep["failed"] == 0, "unexpected scenario failures", p)
    expect(len(sweep_lines(p.stdout)) == 5, "expected 4 results + summary", p)


def case_sweep_trace(cli):
    """Sweep with both report files; the trace must validate too."""
    metrics = os.path.join(cli.tmp, "metrics.json")
    trace = os.path.join(cli.tmp, "trace.json")
    p = cli.run(cli.deck(), "--sweep", "mc:2", "--jobs", "1", "--probe",
                "out", "--metrics", metrics, "--trace", trace)
    expect(p.returncode == 0, "traced sweep failed", p)
    cli.check_report(metrics=metrics, trace=trace)


def case_sweep_jobs_identity(cli):
    """The determinism contract at the CLI surface: identical per-scenario
    values, sweep accounting, and merged counters for jobs=1 vs jobs=4."""
    out = {}
    for jobs in (1, 4):
        metrics = os.path.join(cli.tmp, f"metrics{jobs}.json")
        p = cli.run(cli.deck(), "--sweep", "mc:8", "--jobs", str(jobs),
                    "--seed", "1", "--probe", "out", "--metrics", metrics)
        expect(p.returncode == 0, f"jobs={jobs} sweep failed", p)
        cli.check_report(metrics=metrics)
        lines = sweep_lines(p.stdout)
        expect(len(lines) == 9, f"jobs={jobs}: expected 8 results + summary",
               p)
        out[jobs] = (json.load(open(metrics)), lines)
    m1, lines1 = out[1]
    m4, lines4 = out[4]
    assert lines1 == lines4, (
        f"printed sweep values differ:\n{lines1}\nvs\n{lines4}")
    for key in ("sweep", "counters"):
        assert m1.get(key) == m4.get(key), (
            f"metrics '{key}' differs between jobs=1 and jobs=4:\n"
            f"{m1.get(key)}\nvs\n{m4.get(key)}")


def case_bad_inputs(cli):
    """Exit codes and one-line causes scripted flows rely on."""
    p = cli.run("/nonexistent/deck.sp")
    expect(p.returncode == 1 and "cannot open" in p.stderr,
           "missing deck must exit 1 with 'cannot open'", p)

    bad = os.path.join(cli.tmp, "bad.sp")
    with open(bad, "w") as f:
        f.write("* malformed deck\nr1 a\n")
    p = cli.run(bad)
    expect(p.returncode == 1 and "error:" in p.stderr,
           "malformed deck must exit 1 with a parse error", p)

    p = cli.run(cli.deck(), "--frobnicate")
    expect(p.returncode == 1 and "unknown flag" in p.stderr,
           "unknown flag must exit 1", p)

    p = cli.run(cli.deck(), "--sweep", "xyz")
    expect(p.returncode == 1 and "--sweep expects mc:<N>" in p.stderr,
           "bad sweep spec must exit 1", p)

    # Numeric flag values are whole unsigned decimals: a sign, trailing
    # text or a word is refused before anything runs (no wrap to ULONG_MAX,
    # no silent prefix parse), and --jobs is capped at 256 threads.
    for flag, val in (("--jobs", "-1"), ("--jobs", "abc"), ("--jobs", "2x"),
                      ("--jobs", "257"), ("--seed", "banana"),
                      ("--sweep", "mc:3x")):
        p = cli.run(cli.deck(), flag, val)
        expect(p.returncode == 1 and flag in p.stderr
               and len(p.stderr.strip().splitlines()) == 1,
               f"'{flag} {val}' must exit 1 with a one-line cause naming "
               f"{flag}", p)

    p = cli.run(cli.deck(), "--sweep", "mc:2")
    expect(p.returncode == 1 and "--probe" in p.stderr,
           "sweep without probe must exit 1", p)

    p = cli.run(cli.deck(), "--sweep", "mc:2", "--probe", "no_such_node")
    expect(p.returncode == 1 and "probe node" in p.stderr,
           "unknown probe node must exit 1", p)

    # Card mode validates the analysis values the way sweep mode does, with
    # a one-line cause: a .tran step or stop time that is not positive never
    # reaches the engine's internal check.
    for card, cause in ((".tran abc 1n", "bad .tran card"),
                        (".tran 1n -1u", "bad .tran card"),
                        (".tran 0 1u", "bad .tran card"),
                        (".pss xyz", "bad .pss card"),
                        (".pss -1u", "bad .pss card")):
        deck = os.path.join(cli.tmp, "bad_card.sp")
        with open(deck, "w") as f:
            f.write(f"* bad analysis card\nr1 a 0 1k\nv1 a 0 1\n{card}\n.end\n")
        p = cli.run(deck)
        expect(p.returncode == 1 and cause in p.stderr
               and len(p.stderr.strip().splitlines()) == 1,
               f"'{card}' must exit 1 with a one-line '{cause}'", p)

    # A .pnoise card the analysis would stop on (an output that is no node
    # of the deck or is ground, or a deck without a mismatch source) is
    # refused the same way, before the PSS runs.
    rc = ("VIN in 0 PULSE(0 1 0.1u 10n 10n 0.4u 1u)\n"
          "R1 in out 10k{}\nC1 out 0 4p\n.pss 1u\n")
    for body, card in ((rc.format(" sigma=200"), ".pnoise nosuchnode"),
                       (rc.format(" sigma=200"), ".pnoise 0"),
                       (rc.format(""), ".pnoise out")):
        deck = os.path.join(cli.tmp, "bad_pnoise.sp")
        with open(deck, "w") as f:
            f.write(f"* bad pnoise card\n{body}{card}\n.end\n")
        p = cli.run(deck)
        expect(p.returncode == 1 and "bad .pnoise card" in p.stderr
               and len(p.stderr.strip().splitlines()) == 1,
               f"'{card}' must exit 1 with a one-line 'bad .pnoise card'", p)

    # A card short of its values (a .tran without both times, a .pss
    # without a period, a .pnoise without an output node) is refused the
    # same way in both modes, not skipped as unsupported (card mode) or
    # taken for a missing .tran card (sweep mode).
    for card, cause in ((".tran 1n", "bad .tran card"),
                        (".tran", "bad .tran card"),
                        (".pss", "bad .pss card"),
                        (".pnoise", "bad .pnoise card")):
        deck = os.path.join(cli.tmp, "short_card.sp")
        with open(deck, "w") as f:
            f.write(f"* short analysis card\nr1 a 0 1k sigma=10\nv1 a 0 1\n"
                    f"{card}\n.end\n")
        for mode, extra in (("card mode", ()),
                            ("--sweep", ("--sweep", "mc:2", "--probe", "a"))):
            p = cli.run(deck, *extra)
            expect(p.returncode == 1 and cause in p.stderr
                   and len(p.stderr.strip().splitlines()) == 1,
                   f"'{card}' in {mode} must exit 1 with a one-line "
                   f"'{cause}'", p)

    # Sweep mode reads the .tran card through the same check.
    for card in (".tran 1n -1u", ".tran 0 1u"):
        deck = os.path.join(cli.tmp, "bad_sweep.sp")
        with open(deck, "w") as f:
            f.write(f"* bad sweep card\nr1 a 0 1k sigma=10\nv1 a 0 1\n"
                    f"{card}\n.end\n")
        p = cli.run(deck, "--sweep", "mc:2", "--probe", "a")
        expect(p.returncode == 1 and "bad .tran card" in p.stderr
               and len(p.stderr.strip().splitlines()) == 1,
               f"'{card}' under --sweep must exit 1 with a one-line "
               "'bad .tran card'", p)


CASES = {
    "card_demo": case_card_demo,
    "card_deck": case_card_deck,
    "card_pnoise_jobs": case_card_pnoise_jobs,
    "sweep_mc": case_sweep_mc,
    "sweep_trace": case_sweep_trace,
    "sweep_jobs_identity": case_sweep_jobs_identity,
    "bad_inputs": case_bad_inputs,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runner", required=True,
                    help="path to the built netlist_runner")
    ap.add_argument("--repo", required=True, help="repository root")
    ap.add_argument("case", choices=sorted(CASES))
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="psmn_cli_") as tmp:
        CASES[args.case](Cli(args.runner, args.repo, tmp))
    print(f"cli case '{args.case}' OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
