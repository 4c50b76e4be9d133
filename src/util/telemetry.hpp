// Deterministic telemetry: a near-zero-overhead metrics registry plus
// scoped trace spans, threaded through every layer of the solver stack
// (LU kernels, MNA evaluation, the engines, the scenario sweep, the
// runner).
//
// Design constraints (mirroring util/fault_injection.hpp):
//   * Zero overhead when disabled: every probe is one inline thread-local
//     pointer test. No registry bound -> no counter write, no clock read.
//   * Deterministic totals under work stealing: counters live in
//     thread-slot-local storage (one cache-line-aligned slot per
//     execution slot, at most one thread writing a slot at a time — the
//     ThreadPool contract) and are merged in slot order. Counter totals
//     are sums of per-chunk fixed work, and integer addition is
//     commutative, so the merged totals are bit-identical for every jobs
//     count and every steal schedule — which slot a count lands in varies,
//     the sum never does. Timers are wall-clock and therefore NOT
//     deterministic; only the counters are gated in CI.
//   * The registry never feeds back into the computation: binding,
//     unbinding, or discarding telemetry cannot change a single result
//     bit (tests/test_telemetry.cpp pins this across jobs counts).
//
// Two decoupled mechanisms:
//   * TelemetryRegistry + TelemetryScope + telemetryCount()/TraceSpan:
//     global counters, phase timers, and Chrome-trace events, recorded on
//     whatever thread executes the work (the ThreadPool binds its slots
//     when a registry is attached).
//   * SolveStats: the per-result cost counters embedded in DcResult,
//     TransientResult, TransientSensitivityResult, PssResult, and
//     SweepResult. The Newton workspace (engine/newton.hpp) tallies every
//     eval, factor, solve and iteration of the Newton kernel on the calling
//     thread; the few costs outside it (step counts, monodromy sweeps,
//     sensitivity columns) are added by their engine, parallel fan-outs
//     from the dispatching side, so a result's stats are bit-identical
//     across jobs counts, with or without a registry bound.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace psmn {

/// Shared per-result cost counters — the consolidation of the old ad-hoc
/// fields (DcResult::iterations, PssResult::newtonIterations, the
/// TransientWorkspace factorization counters). All counts are cumulative
/// over the producing call; `factorNnz` is the nnz(L+U) of the most
/// recent sparse factorization (0 when the call made none).
struct SolveStats {
  uint64_t newtonIterations = 0;  // Newton iterations (all strategies)
  uint64_t steps = 0;             // accepted integration steps
  uint64_t factorizations = 0;    // full LU factorizations (symbolic+numeric)
  uint64_t refactorizations = 0;  // sparse pattern-reusing numeric refactors
  uint64_t solves = 0;            // triangular-solve right-hand-side columns
  uint64_t evals = 0;             // MNA system evaluations
  uint64_t factorNnz = 0;         // nnz(L+U) of the latest sparse factor

  uint64_t totalFactorizations() const {
    return factorizations + refactorizations;
  }

  /// Accumulates `o` into this (factorNnz takes o's when nonzero).
  void add(const SolveStats& o) {
    newtonIterations += o.newtonIterations;
    steps += o.steps;
    factorizations += o.factorizations;
    refactorizations += o.refactorizations;
    solves += o.solves;
    evals += o.evals;
    if (o.factorNnz != 0) factorNnz = o.factorNnz;
  }

  bool operator==(const SolveStats&) const = default;
};

/// Global registry counters. Recorded at the instrumented sites via
/// telemetryCount(); totals are deterministic across jobs counts (see the
/// file comment). Grep for the counterName() strings to enumerate sites.
enum class Counter : uint8_t {
  kDenseFactors = 0,   // DenseLU<T>::factor
  kSparseFactors,      // SparseLU<T>::factor (symbolic + numeric)
  kSparseRefactors,    // SparseLU<T>::refactor (successful)
  kFactorNnzTotal,     // sum of nnz(L+U) over all sparse (re)factors
  kSolveColumns,       // triangular-solve RHS columns (DenseLU and SparseLU)
  kMnaEvals,           // MnaSystem::evalDense / evalSparse
  kNewtonIterations,   // DC + transient + PSS-inner Newton iterations
  kStepsAccepted,      // accepted integration steps
  kScenariosRun,       // scenario sweep: scenarios evaluated
  kScenarioRetries,    // scenario sweep: extra attempts taken
  kCount_
};
inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount_);
const char* counterName(Counter c);

/// Engine phases — the trace-span categories and timer buckets.
enum class Phase : uint8_t {
  kParse = 0,
  kDc,
  kTransient,
  kSensitivity,
  kPss,
  kLptv,
  kPnoise,
  kMc,
  kScenario,
  kStep,    // one integration step / continuation rung
  kNewton,  // one Newton iteration
  kKernel,  // factor / refactor / solve
  kCount_
};
inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kCount_);
const char* phaseName(Phase p);

/// Span granularity. Spans above the registry's configured detail are
/// compiled down to a thread-local load and a byte compare — no clock
/// read, no event record — so kStep/kKernel instrumentation in the hot
/// loops costs nothing unless explicitly requested.
enum class TraceDetail : uint8_t {
  kPhase = 0,   // engine phases and scenarios only
  kStep = 1,    // + per-step spans
  kKernel = 2,  // + per-Newton-iteration and factor/solve spans
};

/// One completed span, in Chrome trace-event terms: a "complete" ("X")
/// event on track `slot`. `name` points at a static string literal from
/// the span site; `arg` optionally carries a dynamic label (a scenario
/// name). Timestamps are nanoseconds relative to the registry's epoch.
struct TraceEvent {
  const char* name = nullptr;
  std::string arg;
  Phase phase = Phase::kParse;
  uint32_t slot = 0;
  int64_t startNs = 0;
  int64_t durNs = 0;
};

class TelemetryRegistry;

/// Registry configuration (namespace scope so it can default-construct in
/// TelemetryRegistry's default argument).
struct TelemetryOptions {
  bool collectEvents = false;  // record TraceEvents for Chrome export
  TraceDetail detail = TraceDetail::kPhase;
};

namespace detail {
/// Thread -> (registry, slot) binding, a chain like FaultScope's so scopes
/// nest and restore. The ThreadPool installs one per driver when a
/// registry is attached; the runner installs one on the main thread.
struct TelemetryBinding {
  TelemetryRegistry* registry = nullptr;
  size_t slot = 0;
  TelemetryBinding* prev = nullptr;
};
extern thread_local TelemetryBinding* tlTelemetry;
void telemetryAdd(Counter c, uint64_t n);  // slow path, binding non-null
}  // namespace detail

/// Counter probe. Fast path when no registry is bound: one thread-local
/// pointer load (exactly the FaultScope probe shape).
inline void telemetryCount(Counter c, uint64_t n = 1) {
  if (detail::tlTelemetry != nullptr) detail::telemetryAdd(c, n);
}

/// True while a registry is bound on this thread.
inline bool telemetryBound() { return detail::tlTelemetry != nullptr; }

/// The metrics registry: per-slot counters, per-phase timers, and
/// (optionally) trace events. Create one with as many slots as the
/// execution runtime has (ThreadPool::jobCount()); slot data is
/// cache-line aligned so concurrent slots never false-share.
class TelemetryRegistry {
 public:
  using Options = TelemetryOptions;

  explicit TelemetryRegistry(size_t slots = 1, Options opt = Options());

  size_t slotCount() const { return slots_.size(); }
  bool collectsEvents() const { return opt_.collectEvents; }
  TraceDetail detail() const { return opt_.detail; }

  /// Deterministic slot-order merge of the counters and phase timers.
  struct Totals {
    std::array<uint64_t, kNumCounters> counters{};
    std::array<uint64_t, kNumPhases> phaseNs{};
  };
  Totals totals() const;
  uint64_t counterTotal(Counter c) const;

  /// All recorded events, merged in slot order (then per-slot record
  /// order, which is the completion order on that slot).
  std::vector<TraceEvent> events() const;

 private:
  friend class TelemetryScope;
  friend class TraceSpan;
  friend void detail::telemetryAdd(Counter c, uint64_t n);

  struct alignas(64) Slot {
    std::array<uint64_t, kNumCounters> counters{};
    std::array<uint64_t, kNumPhases> phaseNs{};
    std::vector<TraceEvent> events;
  };
  std::vector<Slot> slots_;
  std::chrono::steady_clock::time_point epoch_;
  Options opt_;
};

/// RAII binding of the current thread to one registry slot. Nests like
/// FaultScope: the innermost binding wins, the previous one is restored
/// on exit. The caller must guarantee at most one thread is bound to a
/// given slot at a time (the ThreadPool's slot contract provides this).
class TelemetryScope {
 public:
  TelemetryScope(TelemetryRegistry& reg, size_t slot);
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  detail::TelemetryBinding binding_;
};

/// RAII timed span. Records nothing when no registry is bound or the
/// span's level exceeds the registry's configured detail. Closing happens
/// in the destructor, so spans stay well-formed (properly nested per
/// slot) under exceptions and early returns — Chrome trace viewers
/// require exactly this.
class TraceSpan {
 public:
  TraceSpan(Phase phase, const char* name,
            TraceDetail level = TraceDetail::kPhase);
  /// Variant with a dynamic label (e.g. a scenario name), attached to the
  /// exported event as args.label. The label is only copied when the span
  /// actually records.
  TraceSpan(Phase phase, const char* name, const std::string& arg,
            TraceDetail level = TraceDetail::kPhase);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void open(Phase phase, const char* name, TraceDetail level);

  detail::TelemetryBinding* binding_ = nullptr;  // null: span is disabled
  Phase phase_ = Phase::kParse;
  const char* name_ = nullptr;
  std::string arg_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace psmn
