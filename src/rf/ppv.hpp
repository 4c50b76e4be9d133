// Discrete-adjoint oscillator period/frequency sensitivity — the
// discretely-consistent form of Demir's perturbation projection vector
// (PPV, paper ref. [15]).
//
// The autonomous shooting system solves
//   H(x0, T; p) = [ x(T; x0, p) - x0 ;  x0[phase] - c ] = 0,
// so by the implicit function theorem
//   dT/dp = w_x^T * (dx(T)/dp)|_{x0 fixed},
// where [w_x; w_T] solves the transposed bordered system
//   [ Phi - I   dx(T)/dT ]^T  [w_x]   [0]
//   [ e_p^T         0    ]    [w_T] = [1].
// Expanding dx(T)/dp through the backward-Euler recursion gives
//   dT/dp = sum_k z_k^T g_k,   z_k = J_k^{-T} y_k,  y_{k-1} = D_k^T z_k,
//   y_M = w_x,   g_k = dF/dp at step k,
// i.e. one backward sweep (the discrete PPV waveform z) prices *all*
// parameters by dot products — same economics as Demir's continuous PPV,
// but exact for the discrete system, so it matches finite-difference
// re-shooting to solver tolerance.
//
// Used as the independent cross-check of the paper's eq. 9 frequency
// readout (Ppv.FrequencySensitivityMatchesPnoiseReadout in
// tests/test_rf.cpp).
#pragma once

#include "engine/mna.hpp"
#include "rf/pss.hpp"

namespace psmn {

struct PpvResult {
  /// Discrete adjoint waveforms z_k, k = 1..M (index 0 unused).
  std::vector<RealVector> z;
  /// Bordered adjoint solution (w_x, w_T); diagnostics.
  RealVector wx;
  Real wT = 0.0;

  /// dT/dp for one injection source (seconds per unit parameter).
  Real periodSensitivity(const MnaSystem& sys, const PssResult& pss,
                         const InjectionSource& src) const;
  /// df/dp = -f0^2 * dT/dp (Hz per unit parameter).
  Real frequencySensitivity(const MnaSystem& sys, const PssResult& pss,
                            const InjectionSource& src) const;
};

/// Requires an autonomous PSS result (with phaseIndex and dxdT stored).
PpvResult computePpv(const MnaSystem& sys, const PssResult& pss);

}  // namespace psmn
