// Periodic (cyclostationary) noise analysis — the engine behind the
// paper's mismatch analysis.
//
// Runs the LPTV solver at a small offset frequency (1 Hz by default, the
// paper's "virtual DC") for every injection source and reports, per output
// and per sideband N, the stationary-equivalent PSD at N*f0 + f together
// with the per-source contribution breakdown (paper SS V, eq. 10-11). The
// sources' flicker PSDs are read at the offset. On a driven orbit the
// LPTV recursion itself runs at w = 0 in real arithmetic (the quasi-static
// limit the 1 Hz probe stands for); an oscillator's runs complex at the
// offset (rf/lptv.hpp).
//
// Readouts solve on demand and pay only for what they read: a sideband is
// one adjoint solve, envelope samples stop the direct pass at the last grid
// point they read, and only solution() stores every envelope. They share
// the LPTV solver's cached step factors and closed cycle, so const readouts
// fill caches and one analysis serves one thread at a time.
//
// Every cyclic solve here rides the LPTV solver's sparse step factors on
// the orbit's stored linearizations; tests/test_rf_sparse.cpp checks the
// PSD readouts against a DenseLU rebuild of the same cyclic system.
#pragma once

#include <optional>

#include "rf/lptv.hpp"

namespace psmn {

struct PnoiseOptions {
  /// Hz; must be << f0. Where every source's flicker PSD is read, and an
  /// oscillator's LPTV recursion frequency (a driven orbit's runs at 0).
  Real offsetFreq = 1.0;
  /// Optional execution runtime, forwarded to the LPTV solver
  /// (LptvOptions::pool): its adjoint and direct column recursions and the
  /// per-source chains fan across the pool with bit-identical results.
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

  /// Solves nothing: every readout solves on demand. Kept for callers that
  /// still time an LPTV stage of their own around it.
  void run() {}

  const std::vector<InjectionSource>& sources() const {
    return solver_.sources();
  }
  /// Every source's full envelope (direct solve on first call, then kept).
  const LptvSolution& solution() const;
  const PssResult& pss() const { return solver_.pss(); }
  Real offsetFreq() const { return solver_.offsetFreq(); }

  /// Readout at output unknown `outIndex`, sideband N (0 = baseband), from
  /// one adjoint LPTV solve.
  PnoiseSideband sideband(int outIndex, int harmonic) const;

  /// Envelope samples of every source at output `outIndex` and the grid
  /// points `points` (LptvSolver::sampleDirect): out[s * points.size() + i]
  /// is p_{points[i]}[outIndex] of source s, bit for bit the value in
  /// solution().
  CplxVector samples(int outIndex, std::span<const size_t> points) const;

 private:
  LptvSolver solver_;
  mutable std::optional<LptvSolution> solution_;
};

}  // namespace psmn
