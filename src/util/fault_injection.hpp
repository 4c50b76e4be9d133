// Deterministic fault injection for the numerical stack.
//
// Tests (and only tests — nothing in the library arms faults on its own)
// install a FaultScope on the current thread to force failures at named
// sites inside the solvers: an LU pivot breakdown, a non-finite device
// evaluation, a Newton iteration that refuses to converge. Each armed
// point fires on an exact, reproducible window of "hits" of its site, so
// an injected failure lands on the same Newton iteration / factorization
// every run — which is what lets the retry/recovery paths be tested for
// bit-identical results across thread counts.
//
// Design constraints:
//   * Zero overhead when disarmed: the probe is an inline thread-local
//     pointer test; the registry is consulted only inside a scope.
//   * Thread-confined: a scope arms the installing thread only. The
//     scenario sweep arms each scenario's plan on its evaluating slot, so
//     injection is a pure function of the scenario, never of scheduling.
//   * Counting is per-scope: hit counters reset when a scope is entered,
//     so "fail the 3rd factorization" means the 3rd within this scope.
//
// Instrumented sites (grep for PSMN_FAULT_SITE_* to enumerate):
//   "dense_lu.factor"     DenseLU<T>::factor throws NumericalError
//   "sparse_lu.factor"    SparseLU<T>::factor throws NumericalError
//   "sparse_lu.refactor"  SparseLU<T>::refactor reports pivot failure
//   "mna.eval"            MnaSystem::evalDense/evalSparse poison f[0]=NaN
//   "dc.newton.converge"  the Newton kernel refuses a DC acceptance
//   "tran.newton.converge" the Newton kernel refuses a transient-step
//                          acceptance
#pragma once

#include <string>
#include <vector>

namespace psmn {

/// One armed failure point: site `site` fires on hit indices
/// [firstHit, firstHit + count) counted from scope entry (0-based), or on
/// every hit >= firstHit when count < 0.
struct FaultPoint {
  std::string site;
  int firstHit = 0;
  int count = 1;
};

/// A set of armed points; activated per thread via FaultScope. Copyable
/// value type so a SweepScenario can carry its plan by value.
struct FaultPlan {
  std::vector<FaultPoint> points;

  /// Arms `site` to fire `count` times starting at its `firstHit`-th hit.
  void arm(std::string site, int firstHit = 0, int count = 1) {
    points.push_back({std::move(site), firstHit, count});
  }
  bool empty() const { return points.empty(); }
};

namespace detail {
bool faultFire(const char* site);  // slow path behind the inline probe
}  // namespace detail

/// RAII activation of a plan on the constructing thread. Scopes nest; the
/// innermost scope wins (outer scopes are shadowed, not merged). The scope
/// also tallies hits and fires per site for test assertions.
class FaultScope {
 public:
  explicit FaultScope(const FaultPlan& plan);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  /// Probe hits observed at `site` since scope entry.
  int hits(const std::string& site) const;
  /// Fires (forced failures) delivered at `site` since scope entry.
  int fired(const std::string& site) const;
  /// Total fires across all sites.
  int firedTotal() const;

 private:
  friend bool detail::faultFire(const char* site);
  struct SiteCounter {
    std::string site;
    int hits = 0;
    int fired = 0;
  };
  const FaultPlan plan_;  // copied: the scope must outlive caller mutation
  std::vector<SiteCounter> counters_;
  FaultScope* prev_ = nullptr;  // shadowed outer scope, restored on exit
};

namespace detail {
extern thread_local FaultScope* tlFaultScope;
}  // namespace detail

/// The probe the instrumented sites call. True means "fail now": throw the
/// site's error / poison the site's output. Inline fast path: one
/// thread-local load when no scope is installed.
inline bool faultShouldFire(const char* site) {
  return detail::tlFaultScope != nullptr && detail::faultFire(site);
}

/// Name of the most recent site that fired on this thread ("" when none
/// has). Used to stamp FailureDiagnostics::injectedFault so an injected
/// failure is distinguishable from an organic one in sweep reports.
const std::string& lastFiredFaultSite();

/// Clears the last-fired marker (scope entry does this automatically).
void clearLastFiredFaultSite();

}  // namespace psmn
