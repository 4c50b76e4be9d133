// Scenario sweep: fans one transient specification across N scenarios on
// the execution runtime — corners, mismatch configurations, Monte-Carlo
// samples — the production sign-off loop around the paper's single
// sensitivity solve.
//
// Ownership rules (docs/architecture.md "The parallel runtime"): every
// scenario owns its full stack — a private Netlist built by its factory on
// the evaluating slot, the MnaSystem over it, and the TransientWorkspace
// the analysis allocates internally.
// Nothing is shared between scenarios, so device mutation (mismatch
// deltas) and workspace reuse need no locking. Results land in input
// order; a failing scenario (ConvergenceError, NumericalError, ...) is
// reported in its SweepResult instead of aborting the sweep.
#pragma once

#include <functional>
#include <span>

#include "core/monte_carlo.hpp"  // NetlistFactory
#include "engine/transient.hpp"
#include "runtime/thread_pool.hpp"
#include "util/fault_injection.hpp"

namespace psmn {

/// Per-scenario bounded-escalation retry policy. Retry k (k = 1..
/// maxRetries) reruns the failed scenario with the timestep scaled by
/// 0.5^k and the step's Newton budget doubled; the last retry also falls back
/// to the backward-Euler integrator (the most heavily damped one). DC
/// solves inside the analysis escalate on their own through the
/// gmin/source ladders into arclength continuation (engine/dc). A scenario
/// that still fails reports its FailureDiagnostics in the SweepResult
/// instead of aborting the sweep.
struct SweepRetryPolicy {
  int maxRetries = 0;  // extra attempts after the first (0 = off)
};

struct SweepScenario {
  std::string name;
  /// Builds this scenario's private netlist (finalize() is called by the
  /// sweep). Runs on the evaluating slot; must not touch shared state.
  NetlistFactory make;

  /// Node whose transient waveform is recorded.
  std::string outNode;

  // Transient window and engine options. The TranOptions::pool field is
  // ignored here: runTransient has no column fan-out to give it.
  Real t0 = 0.0, t1 = 0.0, dt = 0.0;
  TranOptions tran;

  /// Retry escalation when this scenario's analysis throws.
  SweepRetryPolicy retry;
  /// Deterministic fault injection (tests): the plan is armed in a
  /// FaultScope around ALL of this scenario's attempts on its evaluating
  /// slot. FaultScope is thread-confined and the hit counters persist
  /// across retries, so what fires is a pure function of the scenario —
  /// never of scheduling — and a count=1 fault fires on the first attempt
  /// only, exercising exactly one recovery.
  FaultPlan faults;
};

struct SweepResult {
  size_t index = 0;  // input-order position
  std::string name;
  bool ok = false;
  std::string error;  // exception text when !ok
  int attempts = 1;        // 1 + retries actually taken
  bool recovered = false;  // ok on a retry after at least one failure
  /// Structured post-mortem of the most recent failed attempt (whether or
  /// not a later retry recovered). Check `hasDiagnostics` before reading.
  bool hasDiagnostics = false;
  FailureDiagnostics diagnostics;

  /// Cost counters of the successful attempt (zero when !ok).
  SolveStats stats;

  std::vector<Real> times;
  RealVector waveform;  // outNode at each time point
  RealVector finalState;
};

/// Called (serialized under an internal mutex) as each scenario finishes,
/// in completion order — progress reporting, not result consumption;
/// results still land in input order in the returned vector.
using SweepProgressFn = std::function<void(const SweepResult&)>;

/// Runs every scenario on the pool, one slot per scenario at a time, and
/// returns results in input order. Deterministic: scenario evaluation is
/// self-contained, so results are independent of the pool's job count (the
/// optional progress callback observes completion order, which is not).
std::vector<SweepResult> runScenarioSweep(
    std::span<const SweepScenario> scenarios, ThreadPool& pool,
    const SweepProgressFn& onProgress = nullptr);

}  // namespace psmn
