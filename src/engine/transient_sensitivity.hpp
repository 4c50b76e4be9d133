// Direct transient sensitivity analysis (Hocevar et al. [23] in the paper):
// propagates s_i(t) = dx(t)/dp_i for every mismatch parameter alongside a
// fixed-step backward-Euler transient.
//
// This is the method the paper argues *against* for mismatch analysis of
// periodic measurements (SS IV): its cost grows with simulation length and
// it wastes effort on the settling transient. It is implemented here as an
// estimator for aperiodic windows (the BJT op-amp's step response) and as
// an independent cross-check of the LPTV results: the logic path's
// edge-delay gains must equal crossingTimeSensitivity's
// (tests/test_integration.cpp).
#pragma once

#include "engine/mna.hpp"
#include "engine/transient.hpp"

namespace psmn {

struct TransientSensitivityResult {
  std::vector<Real> times;
  std::vector<RealVector> states;             // x at each time point
  /// sens[i] is the sensitivity waveform matrix for source i: one vector
  /// dx/dp_i per time point.
  std::vector<std::vector<RealVector>> sens;
  /// Run cost. stats.totalFactorizations() counts every factorization of
  /// the linearized system (Newton full factorizations + sparse numeric
  /// refactorizations + the initial DC-sensitivity factor) — the old
  /// `luFactorizations` field. The sensitivity recursion itself adds no
  /// factorizations (it reuses the accepted-step Newton factorization for
  /// all sources); its per-step multi-RHS substitutions land in
  /// stats.solves (ns columns per accepted step).
  SolveStats stats;

  /// Sensitivity of the crossing time of unknown `outIndex` through `level`
  /// (direction +1 rising / -1 falling) w.r.t. parameter i:
  ///   dtc/dp = -s_out(tc) / vdot(tc).
  Real crossingTimeSensitivity(size_t sourceIndex, int outIndex, Real level,
                               int direction) const;
};

TransientSensitivityResult runTransientSensitivity(
    const MnaSystem& sys, Real t0, Real t1, Real dt,
    std::span<const InjectionSource> sources, const TranOptions& opt = {});

}  // namespace psmn
