// Example: SPICE-deck front end. Parses a netlist (from a file argument or
// a built-in demo deck), runs the analysis cards it contains, and for
// circuits with mismatch annotations runs the pseudo-noise analysis when a
// .pss/.pnoise pair is present.
//
// Demonstrated cards: .op, .tran, .pss <period>, .pnoise <out-node>.
//
// Sweep mode fans the deck's .tran card across N mismatch scenarios on the
// parallel runtime (each scenario re-parses the deck into a private
// netlist, applies its seeded mismatch draw, and runs on its own slot):
//
//   netlist_runner deck.sp --sweep mc:64 --jobs 8 [--seed 1] [--probe out]
//
// Results are reported in scenario order and are bit-identical for every
// --jobs value (per-scenario RNG streams are derived from the scenario
// index, never from thread timing). Every numeric flag value is a whole
// unsigned decimal; --jobs is at most kMaxJobs (0 = one job per core).
//
// Observability flags (docs/user_guide.md "Run reports"):
//   --metrics out.json          machine-readable run report (counters,
//                               phase timers, per-card/per-scenario stats)
//   --trace out.json            Chrome trace-event file (chrome://tracing
//                               or Perfetto)
//   --trace-detail phase|step|kernel   span granularity (default phase)
//   --progress                  one line per scenario as it completes
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "circuit/parser.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/monte_carlo.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "meas/measure.hpp"
#include "numeric/statistics.hpp"
#include "runtime/scenario_sweep.hpp"
#include "util/trace_export.hpp"
#include "util/units.hpp"

using namespace psmn;

namespace {

const char* kDemoDeck = R"(pulse-shaping network with resistor mismatch
VIN in 0 PULSE(0 1 0.1u 10n 10n 0.4u 1u)
R1 in mid 10k sigma=200
C1 mid 0 4p
R2 mid out 10k sigma=200
C2 out 0 4p
.op
.tran 2n 1u
.pss 1u
.pnoise out
.end
)";

/// Upper bound of --jobs: one pool thread per job is started up front.
constexpr uint64_t kMaxJobs = 256;

struct RunnerArgs {
  std::string deckPath;
  size_t jobs = 1;        // --jobs N (0 = hardware)
  size_t sweepSamples = 0;  // --sweep mc:N (0 = no sweep)
  uint64_t seed = 1;      // --seed S
  std::string probe;      // --probe <node>; default from the .pnoise card
  std::string metricsPath;  // --metrics <file>
  std::string tracePath;    // --trace <file>
  TraceDetail traceDetail = TraceDetail::kPhase;  // --trace-detail
  bool progress = false;    // --progress
};

/// What the metrics report aggregates beyond the registry totals: one
/// SolveStats per analysis card, and the sweep's per-scenario outcomes.
struct RunReport {
  std::vector<std::pair<std::string, SolveStats>> analyses;
  bool haveSweep = false;
  std::vector<SweepResult> sweep;
};

/// Parses `text` as a whole unsigned decimal no larger than `max`: digits
/// only, so a sign, a blank, a fraction or trailing text is rejected (the
/// strtoul family would wrap "-1" and stop silently at "2x").
bool parseUnsigned(const char* text, uint64_t max, uint64_t& out) {
  if (*text == '\0') return false;
  uint64_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const auto digit = static_cast<uint64_t>(*p - '0');
    if (v > (max - digit) / 10) return false;
    v = v * 10 + digit;
  }
  out = v;
  return true;
}

/// Reads a .tran card's step and stop time, the one check card and sweep
/// mode share. False, after printing the one-line cause, unless both are
/// finite and positive (the engine would otherwise stop on an internal
/// check).
bool parseTranCard(const AnalysisCard& card, Real& dt, Real& tstop) {
  const auto step = parseSpiceNumber(card.args[0]);
  const auto stop = parseSpiceNumber(card.args[1]);
  const auto positive = [](const std::optional<Real>& v) {
    return v && std::isfinite(*v) && *v > 0.0;
  };
  if (!positive(step) || !positive(stop)) {
    std::fprintf(stderr,
                 "bad .tran card: '%s %s' (the step and stop time must be "
                 "positive)\n",
                 card.args[0].c_str(), card.args[1].c_str());
    return false;
  }
  dt = *step;
  tstop = *stop;
  return true;
}

bool parseArgs(int argc, char** argv, RunnerArgs& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--jobs") {
      const char* text = value("--jobs");
      uint64_t jobs = 0;
      if (!parseUnsigned(text, kMaxJobs, jobs)) {
        std::fprintf(stderr,
                     "--jobs expects a whole number from 0 to %llu "
                     "(0 = every core), got '%s'\n",
                     static_cast<unsigned long long>(kMaxJobs), text);
        return false;
      }
      args.jobs = static_cast<size_t>(jobs);
    } else if (a == "--seed") {
      const char* text = value("--seed");
      if (!parseUnsigned(text, UINT64_MAX, args.seed)) {
        std::fprintf(stderr,
                     "--seed expects a whole unsigned decimal, got '%s'\n",
                     text);
        return false;
      }
    } else if (a == "--probe") {
      args.probe = value("--probe");
    } else if (a == "--metrics") {
      args.metricsPath = value("--metrics");
    } else if (a == "--trace") {
      args.tracePath = value("--trace");
    } else if (a == "--trace-detail") {
      const std::string d = value("--trace-detail");
      if (d == "phase") {
        args.traceDetail = TraceDetail::kPhase;
      } else if (d == "step") {
        args.traceDetail = TraceDetail::kStep;
      } else if (d == "kernel") {
        args.traceDetail = TraceDetail::kKernel;
      } else {
        std::fprintf(stderr,
                     "--trace-detail expects phase|step|kernel, got '%s'\n",
                     d.c_str());
        return false;
      }
    } else if (a == "--progress") {
      args.progress = true;
    } else if (a == "--sweep") {
      const std::string spec = value("--sweep");
      if (spec.rfind("mc:", 0) != 0) {
        std::fprintf(stderr, "--sweep expects mc:<N>, got '%s'\n",
                     spec.c_str());
        return false;
      }
      uint64_t samples = 0;
      if (!parseUnsigned(spec.c_str() + 3, SIZE_MAX, samples) ||
          samples == 0) {
        std::fprintf(stderr,
                     "--sweep mc:<N> needs a whole N >= 1, got '%s'\n",
                     spec.c_str());
        return false;
      }
      args.sweepSamples = static_cast<size_t>(samples);
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return false;
    } else {
      args.deckPath = a;
    }
  }
  return true;
}

int runSweep(const std::string& deckText, const ParsedCircuit& pc,
             const RunnerArgs& args, TelemetryRegistry& reg,
             RunReport& report) {
  // The main-thread parse (`pc`) supplies the analysis cards and defaults;
  // the scenarios re-parse the text into private netlists on their slots.
  Real dt = 0.0, tstop = 0.0;
  std::string probe = args.probe;
  for (const auto& card : pc.analyses) {
    if (card.kind == "tran" && card.args.size() >= 2) {
      if (!parseTranCard(card, dt, tstop)) return 1;
    } else if (card.kind == "pnoise" && !card.args.empty() && probe.empty()) {
      probe = card.args[0];
    }
  }
  if (dt <= 0.0 || tstop <= 0.0) {
    std::fprintf(stderr, "--sweep needs a .tran card in the deck\n");
    return 1;
  }
  if (probe.empty()) {
    std::fprintf(stderr,
                 "--sweep needs --probe <node> (or a .pnoise card)\n");
    return 1;
  }
  if (!pc.netlist->findNode(probe)) {
    std::fprintf(stderr, "probe node '%s' is not in the deck\n",
                 probe.c_str());
    return 1;
  }

  // One shared copy of the deck source: each scenario re-parses it into a
  // private netlist and applies its sample draw — applyMismatchSample is
  // the MC engine's own stream, so scenario k reproduces MC sample k.
  const auto deck = std::make_shared<const std::string>(deckText);
  std::vector<SweepScenario> scenarios;
  for (size_t k = 0; k < args.sweepSamples; ++k) {
    SweepScenario sc;
    sc.name = "mc" + std::to_string(k);
    sc.make = [deck, seed = args.seed, k] {
      ParsedCircuit spc = parseNetlistString(*deck);
      spc.netlist->finalize();
      applyMismatchSample(spc.netlist->mismatchParams(), nullptr, seed, k);
      return std::move(spc.netlist);
    };
    sc.outNode = probe;
    sc.t1 = tstop;
    sc.dt = dt;
    sc.tran.storeStates = false;
    sc.retry.maxRetries = 2;
    scenarios.push_back(std::move(sc));
  }

  ThreadPool pool(args.jobs);
  pool.attachTelemetry(&reg);
  std::printf("sweep: %zu mismatch scenarios of .tran %s %s on %zu job(s), "
              "probe v(%s), seed %llu\n",
              scenarios.size(), formatEng(dt).c_str(),
              formatEng(tstop).c_str(), pool.jobCount(), probe.c_str(),
              static_cast<unsigned long long>(args.seed));

  SweepProgressFn onProgress;
  size_t done = 0;
  if (args.progress) {
    // Completion order, serialized by the sweep; the per-scenario lines
    // below stay in input order.
    onProgress = [&](const SweepResult& r) {
      ++done;
      std::printf("progress: [%zu/%zu] %-8s %s (attempts=%d)\n", done,
                  scenarios.size(), r.name.c_str(),
                  r.ok ? (r.recovered ? "recovered" : "ok") : "FAILED",
                  r.attempts);
      std::fflush(stdout);
    };
  }
  const auto results = runScenarioSweep(scenarios, pool, onProgress);

  MomentAccumulator acc;
  size_t failures = 0;
  const int probeIdx = pc.netlist->nodeIndex(probe);
  for (const auto& r : results) {
    if (!r.ok) {
      ++failures;
      std::printf("  %-8s FAILED: %s\n", r.name.c_str(), r.error.c_str());
      continue;
    }
    const Real v = r.finalState.at(probeIdx);
    acc.add(v);
    std::printf("  %-8s v(%s) = %s\n", r.name.c_str(), probe.c_str(),
                formatEng(v).c_str());
  }
  if (acc.count() > 0) {
    std::printf("summary: mean = %sV, sigma = %sV over %zu scenarios "
                "(%zu failed)\n",
                formatEng(acc.mean()).c_str(), formatEng(acc.stddev()).c_str(),
                static_cast<size_t>(acc.count()), failures);
  }
  // Recovery report: which scenarios needed the bounded-escalation retries,
  // and the structured post-mortem of each scenario's last failed attempt.
  size_t retried = 0, recovered = 0, totalAttempts = 0;
  for (const auto& r : results) {
    totalAttempts += static_cast<size_t>(r.attempts);
    if (r.attempts > 1) ++retried;
    if (r.recovered) ++recovered;
  }
  if (retried > 0 || failures > 0) {
    std::printf("recovery: %zu scenario(s) retried, %zu recovered, "
                "%zu attempts total\n",
                retried, recovered, totalAttempts);
    for (const auto& r : results) {
      if (!r.hasDiagnostics) continue;
      std::printf("  %-8s %s after %d attempt(s): %s\n", r.name.c_str(),
                  r.ok ? "recovered" : "failed", r.attempts,
                  r.diagnostics.describe().c_str());
    }
  }
  report.haveSweep = true;
  report.sweep = results;
  return failures == results.size() ? 1 : 0;
}

int runCards(const ParsedCircuit& pc, const RunnerArgs& args,
             TelemetryRegistry& reg, RunReport& report) {
  Netlist& nl = *pc.netlist;
  MnaSystem sys(nl);
  std::printf("%zu devices, %zu unknowns, %zu mismatch parameters\n\n",
              nl.devices().size(), sys.size(), nl.mismatchParams().size());

  // --jobs also accelerates the card path: the .pnoise flow fans the
  // monodromy sweeps of the shooting iterations that do not close, the LPTV
  // closure sweep, and the per-source envelope chains across this pool
  // (results are bit-identical for every jobs count).
  std::unique_ptr<ThreadPool> pool;
  if (args.jobs != 1) {
    pool = std::make_unique<ThreadPool>(args.jobs);
    pool->attachTelemetry(&reg);
  }

  Real pssPeriod = 0.0;
  for (const auto& card : pc.analyses) {
    if (card.kind == "op") {
      const DcResult dc = solveDc(sys);
      std::printf(".op (%llu Newton iterations):\n",
                  static_cast<unsigned long long>(dc.stats.newtonIterations));
      for (size_t i = 0; i < sys.size(); ++i) {
        std::printf("  %-12s = %s\n", nl.unknownName(i).c_str(),
                    formatEng(dc.x[i]).c_str());
      }
      report.analyses.emplace_back(".op", dc.stats);
    } else if (card.kind == "tran" && card.args.size() >= 2) {
      Real dt = 0.0, tstop = 0.0;
      if (!parseTranCard(card, dt, tstop)) return 1;
      const TransientResult tr = runTransient(sys, 0.0, tstop, dt, {});
      std::printf(".tran %s %s: %llu steps, final state:\n",
                  card.args[0].c_str(), card.args[1].c_str(),
                  static_cast<unsigned long long>(tr.stats.steps));
      for (size_t i = 0; i < sys.size(); ++i) {
        std::printf("  %-12s = %s\n", nl.unknownName(i).c_str(),
                    formatEng(tr.finalState[i]).c_str());
      }
      report.analyses.emplace_back(".tran", tr.stats);
    } else if (card.kind == "pss" && !card.args.empty()) {
      const auto period = parseSpiceNumber(card.args[0]);
      if (!period || !std::isfinite(*period) || *period <= 0.0) {
        std::fprintf(stderr,
                     "bad .pss card: '%s' (the period must be positive)\n",
                     card.args[0].c_str());
        return 1;
      }
      pssPeriod = *period;
      std::printf(".pss period=%ss (deferred until .pnoise)\n",
                  formatEng(pssPeriod).c_str());
    } else if (card.kind == "pnoise" && !card.args.empty()) {
      if (pssPeriod <= 0.0) {
        std::printf(".pnoise ignored: no preceding .pss card\n");
        continue;
      }
      // Like .tran and .pss, a card the analysis would stop on gets a
      // one-line cause before anything runs.
      const auto out = nl.findNode(card.args[0]);
      if (!out || *out == kGround) {
        std::fprintf(stderr,
                     "bad .pnoise card: '%s' (the output must be a node of "
                     "the deck other than ground)\n",
                     card.args[0].c_str());
        return 1;
      }
      if (nl.mismatchParams().empty()) {
        std::fprintf(stderr,
                     "bad .pnoise card: the deck has no mismatch source (give "
                     "a device a sigma=)\n");
        return 1;
      }
      const int outIdx = nl.nodeIndex(*out);
      MismatchAnalysisOptions opt;
      opt.pss.stepsPerPeriod = 500;
      opt.pss.pool = pool.get();
      opt.pnoise.pool = pool.get();
      TransientMismatchAnalysis an(sys, opt);
      an.runDriven(pssPeriod);
      const VariationResult dc = an.dcVariation(outIdx);
      std::printf(".pnoise at v(%s): baseband sigma = %sV; breakdown:\n",
                  card.args[0].c_str(), formatEng(dc.sigma()).c_str());
      for (size_t i = 0; i < dc.sourceNames.size(); ++i) {
        std::printf("  %-10s %sV\n", dc.sourceNames[i].c_str(),
                    formatEng(dc.scaledSens[i], 3).c_str());
      }
    } else {
      std::printf(".%s: unsupported card skipped\n", card.kind.c_str());
    }
  }
  return 0;
}

/// The --metrics report. Schema (validated by scripts/check_run_report.py):
/// top-level object with schema_version, deck, jobs, counters{},
/// phase_ns{}, analyses[{name, stats{}}], and — in sweep mode —
/// sweep{scenarios, failed, recovered, total_attempts, stats{},
/// per_scenario[{name, ok, attempts, recovered, stats{}, error?}]}.
void writeMetricsReport(std::ostream& os, const RunnerArgs& args, size_t jobs,
                        const TelemetryRegistry& reg,
                        const RunReport& report) {
  JsonWriter w(os);
  w.beginObject();
  w.field("schema_version", uint64_t{1});
  w.field("deck", std::string_view(args.deckPath.empty() ? "(demo)"
                                                         : args.deckPath));
  w.field("jobs", static_cast<uint64_t>(jobs));
  writeRegistrySections(w, reg);
  w.key("analyses");
  w.beginArray();
  for (const auto& [name, stats] : report.analyses) {
    w.beginObject();
    w.field("name", std::string_view(name));
    w.key("stats");
    writeSolveStats(w, stats);
    w.endObject();
  }
  w.endArray();
  if (report.haveSweep) {
    SolveStats agg;
    uint64_t failed = 0, recovered = 0, attempts = 0;
    for (const auto& r : report.sweep) {
      agg.add(r.stats);
      if (!r.ok) ++failed;
      if (r.recovered) ++recovered;
      attempts += static_cast<uint64_t>(r.attempts);
    }
    w.key("sweep");
    w.beginObject();
    w.field("scenarios", static_cast<uint64_t>(report.sweep.size()));
    w.field("failed", failed);
    w.field("recovered", recovered);
    w.field("total_attempts", attempts);
    w.key("stats");
    writeSolveStats(w, agg);
    w.key("per_scenario");
    w.beginArray();
    for (const auto& r : report.sweep) {
      w.beginObject();
      w.field("name", std::string_view(r.name));
      w.field("ok", r.ok);
      w.field("attempts", static_cast<uint64_t>(r.attempts));
      w.field("recovered", r.recovered);
      if (!r.error.empty()) w.field("error", std::string_view(r.error));
      if (r.hasDiagnostics) {
        w.field("diagnostics", std::string_view(r.diagnostics.describe()));
      }
      w.key("stats");
      writeSolveStats(w, r.stats);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.endObject();
  os << '\n';
}

bool writeReports(const RunnerArgs& args, size_t jobs,
                  const TelemetryRegistry& reg, const RunReport& report) {
  bool ok = true;
  if (!args.metricsPath.empty()) {
    std::ofstream out(args.metricsPath);
    if (!out) {
      std::fprintf(stderr, "cannot write metrics to '%s'\n",
                   args.metricsPath.c_str());
      ok = false;
    } else {
      writeMetricsReport(out, args, jobs, reg, report);
      std::printf("metrics written to %s\n", args.metricsPath.c_str());
    }
  }
  if (!args.tracePath.empty()) {
    std::ofstream out(args.tracePath);
    if (!out) {
      std::fprintf(stderr, "cannot write trace to '%s'\n",
                   args.tracePath.c_str());
      ok = false;
    } else {
      writeChromeTrace(out, reg);
      std::printf("trace written to %s (%zu events)\n",
                  args.tracePath.c_str(), reg.events().size());
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  RunnerArgs args;
  if (!parseArgs(argc, argv, args)) return 1;

  std::string deckText;
  if (!args.deckPath.empty()) {
    std::ifstream in(args.deckPath);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", args.deckPath.c_str());
      return 1;
    }
    std::ostringstream os;
    os << in.rdbuf();
    deckText = os.str();
  } else {
    deckText = kDemoDeck;
    std::printf("(no deck given; running the built-in demo)\n");
  }

  // One registry slot per execution slot; the main thread binds slot 0 and
  // the pools bind their drivers (attachTelemetry). Events are only
  // collected when a --trace file was requested.
  const size_t jobs = args.jobs == 0 ? ThreadPool::hardwareJobs() : args.jobs;
  TelemetryRegistry::Options topt;
  topt.collectEvents = !args.tracePath.empty();
  topt.detail = args.traceDetail;
  TelemetryRegistry reg(jobs, topt);
  TelemetryScope mainScope(reg, 0);
  RunReport report;

  // Solver failures carry a structured post-mortem (FailureDiagnostics):
  // print it and exit nonzero instead of dying on an unhandled exception,
  // so scripted flows get a parseable one-line cause.
  try {
    ParsedCircuit pc = [&] {
      TraceSpan span(Phase::kParse, "parse");
      return parseNetlistString(deckText);
    }();
    std::printf("title: %s\n", pc.title.c_str());
    const int rc = args.sweepSamples > 0
                       ? runSweep(deckText, pc, args, reg, report)
                       : runCards(pc, args, reg, report);
    if (!writeReports(args, jobs, reg, report) && rc == 0) return 1;
    return rc;
  } catch (const Error& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    if (const FailureDiagnostics* d = err.diagnostics()) {
      std::fprintf(stderr, "diagnostics: %s\n", d->describe().c_str());
    }
    return 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }
}
