#include "runtime/scenario_sweep.hpp"

#include <mutex>
#include <optional>

#include "util/telemetry.hpp"

namespace psmn {
namespace {

void runOneScenario(const SweepScenario& sc, SweepResult& out) {
  PSMN_CHECK(sc.make != nullptr, "scenario has no netlist factory");
  std::unique_ptr<Netlist> nl = sc.make();
  PSMN_CHECK(nl != nullptr, "scenario factory returned null");
  nl->finalize();
  MnaSystem sys(*nl);

  PSMN_CHECK(!sc.outNode.empty(), "scenario needs an output node");
  const int outIdx = nl->nodeIndex(sc.outNode);
  PSMN_CHECK(outIdx >= 0, "unknown output node '" + sc.outNode + "'");

  const TransientResult tr = runTransient(sys, sc.t0, sc.t1, sc.dt, sc.tran);
  out.times = tr.times;
  out.waveform = tr.waveform(outIdx);
  out.finalState = tr.finalState;
  out.stats = tr.stats;
  out.ok = true;
}

/// One rung of the bounded escalation: half the timestep, a bigger Newton
/// budget; the final rung also falls back to backward Euler.
void tightenScenario(SweepScenario& sc, bool finalAttempt) {
  constexpr Real kDtFactor = 0.5;
  sc.dt *= kDtFactor;
  sc.tran.maxNewton *= 2;
  if (finalAttempt) sc.tran.method = IntegrationMethod::kBackwardEuler;
}

void resetAttemptOutputs(SweepResult& out) {
  out.times.clear();
  out.waveform.clear();
  out.finalState.clear();
  out.stats = {};
}

}  // namespace

std::vector<SweepResult> runScenarioSweep(
    std::span<const SweepScenario> scenarios, ThreadPool& pool,
    const SweepProgressFn& onProgress) {
  std::vector<SweepResult> results(scenarios.size());
  std::mutex progressMutex;
  // Chunk of 1: scenarios are coarse units of work, and slot order must
  // not batch them (a slow scenario would serialize its chunk-mates).
  pool.parallelFor(scenarios.size(), 1, [&](size_t b, size_t e, size_t) {
    for (size_t i = b; i < e; ++i) {
      SweepResult& out = results[i];
      out.index = i;
      out.name = scenarios[i].name;
      TraceSpan span(Phase::kScenario, "scenario", scenarios[i].name);
      telemetryCount(Counter::kScenariosRun);
      // Armed faults live for all of this scenario's attempts: the scope's
      // hit counters make injection a pure function of the scenario, and a
      // count=1 fault fires once and lets the retry pass.
      clearLastFiredFaultSite();
      std::optional<FaultScope> faults;
      if (!scenarios[i].faults.empty()) faults.emplace(scenarios[i].faults);

      SweepScenario attempt = scenarios[i];
      const int maxAttempts = 1 + std::max(0, scenarios[i].retry.maxRetries);
      for (int a = 0; a < maxAttempts; ++a) {
        out.attempts = a + 1;
        resetAttemptOutputs(out);
        // Scenario failures are data, not control flow: production sweeps
        // must deliver the passing corners even when one corner dies.
        try {
          runOneScenario(attempt, out);
          out.recovered = a > 0;
          out.error.clear();
          break;
        } catch (const Error& err) {
          out.ok = false;
          out.error = err.what();
          if (const FailureDiagnostics* d = err.diagnostics()) {
            out.diagnostics = *d;
            out.hasDiagnostics = true;
          }
        } catch (const std::exception& err) {
          out.ok = false;
          out.error = err.what();
        }
        if (a + 1 < maxAttempts) {
          telemetryCount(Counter::kScenarioRetries);
          tightenScenario(attempt, /*finalAttempt=*/a + 2 == maxAttempts);
        }
      }
      if (onProgress) {
        std::lock_guard<std::mutex> lock(progressMutex);
        onProgress(out);
      }
    }
  });
  return results;
}

}  // namespace psmn
