#include "util/telemetry.hpp"

namespace psmn {

const char* counterName(Counter c) {
  switch (c) {
    case Counter::kDenseFactors: return "dense_factors";
    case Counter::kSparseFactors: return "sparse_factors";
    case Counter::kSparseRefactors: return "sparse_refactors";
    case Counter::kFactorNnzTotal: return "factor_nnz_total";
    case Counter::kSolveColumns: return "solve_columns";
    case Counter::kMnaEvals: return "mna_evals";
    case Counter::kNewtonIterations: return "newton_iterations";
    case Counter::kStepsAccepted: return "steps_accepted";
    case Counter::kScenariosRun: return "scenarios_run";
    case Counter::kScenarioRetries: return "scenario_retries";
    case Counter::kCount_: break;
  }
  return "unknown";
}

const char* phaseName(Phase p) {
  switch (p) {
    case Phase::kParse: return "parse";
    case Phase::kDc: return "dc";
    case Phase::kTransient: return "transient";
    case Phase::kSensitivity: return "sensitivity";
    case Phase::kPss: return "pss";
    case Phase::kLptv: return "lptv";
    case Phase::kPnoise: return "pnoise";
    case Phase::kMc: return "mc";
    case Phase::kScenario: return "scenario";
    case Phase::kStep: return "step";
    case Phase::kNewton: return "newton";
    case Phase::kKernel: return "kernel";
    case Phase::kCount_: break;
  }
  return "unknown";
}

namespace detail {

thread_local TelemetryBinding* tlTelemetry = nullptr;

void telemetryAdd(Counter c, uint64_t n) {
  TelemetryBinding* b = tlTelemetry;
  b->registry->slots_[b->slot].counters[static_cast<size_t>(c)] += n;
}

}  // namespace detail

TelemetryRegistry::TelemetryRegistry(size_t slots, Options opt)
    : slots_(slots == 0 ? 1 : slots),
      epoch_(std::chrono::steady_clock::now()),
      opt_(opt) {}

TelemetryRegistry::Totals TelemetryRegistry::totals() const {
  Totals t;
  for (const Slot& s : slots_) {
    for (size_t i = 0; i < kNumCounters; ++i) t.counters[i] += s.counters[i];
    for (size_t i = 0; i < kNumPhases; ++i) t.phaseNs[i] += s.phaseNs[i];
  }
  return t;
}

uint64_t TelemetryRegistry::counterTotal(Counter c) const {
  uint64_t total = 0;
  for (const Slot& s : slots_) total += s.counters[static_cast<size_t>(c)];
  return total;
}

std::vector<TraceEvent> TelemetryRegistry::events() const {
  std::vector<TraceEvent> out;
  size_t n = 0;
  for (const Slot& s : slots_) n += s.events.size();
  out.reserve(n);
  for (const Slot& s : slots_)
    out.insert(out.end(), s.events.begin(), s.events.end());
  return out;
}

TelemetryScope::TelemetryScope(TelemetryRegistry& reg, size_t slot) {
  binding_.registry = &reg;
  binding_.slot = slot < reg.slotCount() ? slot : reg.slotCount() - 1;
  binding_.prev = detail::tlTelemetry;
  detail::tlTelemetry = &binding_;
}

TelemetryScope::~TelemetryScope() { detail::tlTelemetry = binding_.prev; }

void TraceSpan::open(Phase phase, const char* name, TraceDetail level) {
  detail::TelemetryBinding* b = detail::tlTelemetry;
  if (b == nullptr || level > b->registry->detail()) return;  // disabled
  binding_ = b;
  phase_ = phase;
  name_ = name;
  start_ = std::chrono::steady_clock::now();
}

TraceSpan::TraceSpan(Phase phase, const char* name, TraceDetail level) {
  open(phase, name, level);
}

TraceSpan::TraceSpan(Phase phase, const char* name, const std::string& arg,
                     TraceDetail level) {
  open(phase, name, level);
  if (binding_ != nullptr) arg_ = arg;
}

TraceSpan::~TraceSpan() {
  if (binding_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  TelemetryRegistry& reg = *binding_->registry;
  TelemetryRegistry::Slot& slot = reg.slots_[binding_->slot];
  const int64_t durNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count();
  slot.phaseNs[static_cast<size_t>(phase_)] += static_cast<uint64_t>(durNs);
  if (reg.collectsEvents()) {
    TraceEvent& ev = slot.events.emplace_back();
    ev.name = name_;
    ev.arg = std::move(arg_);
    ev.phase = phase_;
    ev.slot = static_cast<uint32_t>(binding_->slot);
    ev.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     start_ - reg.epoch_)
                     .count();
    ev.durNs = durNs;
  }
}

}  // namespace psmn
