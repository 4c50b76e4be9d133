// Periodic (cyclostationary) noise analysis — the engine behind the
// paper's mismatch analysis.
//
// Runs the LPTV solver at a small offset frequency (1 Hz by default, the
// paper's "virtual DC") for every injection source and reports, per output
// and per sideband N, the stationary-equivalent PSD at N*f0 + f together
// with the per-source contribution breakdown (paper SS V, eq. 10-11).
//
// The linear-solver backend follows the PSS result: a sparsely-integrated
// orbit (PssOptions::solver, kAuto above the crossover) makes every cyclic
// solve here ride the sparse LPTV factor cache; tests/test_rf_sparse.cpp
// pins dense-vs-sparse agreement of the PSD readouts.
#pragma once

#include <optional>

#include "rf/lptv.hpp"

namespace psmn {

struct PnoiseOptions {
  Real offsetFreq = 1.0;        // Hz; must be << f0
  bool includeMismatch = true;  // pseudo-noise sources from device mismatch
  bool includePhysical = false; // thermal/flicker device noise
  /// Optional execution runtime, forwarded to the LPTV solver
  /// (LptvOptions::pool): the direct solve's fused B_k/alpha_k column
  /// recursion and per-source envelope chains fan across the pool with
  /// bit-identical results.
  ThreadPool* pool = nullptr;
};

/// Per-(output, sideband) noise readout.
struct PnoiseSideband {
  int harmonic = 0;
  Real offsetFreq = 1.0;
  Real totalPsd = 0.0;                // sum of contributions
  std::vector<Cplx> transfer;         // per source: P_N[out]
  std::vector<Real> contribution;     // per source: |P_N|^2 * S_src(f)
};

class PnoiseAnalysis {
 public:
  PnoiseAnalysis(const MnaSystem& sys, const PssResult& pss,
                 PnoiseOptions opt = {});

  /// Custom source-list variant, e.g. correlated-mismatch composite
  /// sources from CorrelatedMismatch::transformSources (paper SS III-C).
  PnoiseAnalysis(const MnaSystem& sys, const PssResult& pss,
                 std::vector<InjectionSource> sources, PnoiseOptions opt = {});

  /// Solves the LPTV system for all sources (direct method).
  void run();

  const std::vector<InjectionSource>& sources() const { return sources_; }
  const LptvSolution& solution() const;
  const PssResult& pss() const { return *pss_; }
  Real offsetFreq() const { return opt_.offsetFreq; }

  /// Readout at output unknown `outIndex`, sideband N (0 = baseband).
  PnoiseSideband sideband(int outIndex, int harmonic) const;

  /// Same readout through the adjoint LPTV solve (cross-check / ablation).
  PnoiseSideband sidebandAdjoint(int outIndex, int harmonic) const;

 private:
  const MnaSystem* sys_;
  const PssResult* pss_;
  PnoiseOptions opt_;
  std::vector<InjectionSource> sources_;
  LptvSolver solver_;
  std::optional<LptvSolution> solution_;
};

}  // namespace psmn
