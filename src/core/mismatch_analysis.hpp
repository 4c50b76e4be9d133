// TransientMismatchAnalysis — the paper's headline flow (Fig. 2):
//
//   1. map device mismatch to low-frequency pseudo-noise sources,
//   2. find the periodic steady state (shooting Newton),
//   3. run LPTV noise analysis at a 1 Hz offset (on a driven orbit: its
//      quasi-static limit w = 0, in real arithmetic),
//   4. interpret sideband PSDs as performance variations (SS V):
//        N=0 baseband  -> variation of a DC-like quantity (offset voltage)
//        N=1 sideband  -> variation of delay (eq. 8) or frequency (eq. 9)
//
// Readout conventions. Because the 1 Hz pseudo-noise is quasi-static, the
// per-source envelope P_N^{(i)} is the (complex) sensitivity of the N-th
// Fourier coefficient of the output to parameter i (P_0 real on a driven
// orbit). This library's primary readout projects out the phase/time-shift
// component exactly:
//   DC:        S_i = Re(P_0)
//   delay:     S_i = Re[ P_1 / (-j 2 pi f0 V_1) ]   (time-shift projection)
//   frequency: S_i = Re[ P_1 * f_off / V_1 ]
// yielding signed sensitivities S_i and sigma^2 = sum (S_i sigma_i)^2,
// which is what Monte-Carlo converges to for small mismatch. The paper's
// magnitude-based formulas (eq. 8, 9), which fold any residual AM power
// into the same number, are reported alongside as `paperVariance`.
//
// run*() solves only the PSS; every readout then solves its own LPTV part
// on demand. The sideband readouts (dc, delay, frequency) are one adjoint
// solve each; an edge delay reads two envelope samples from a direct pass
// that stops at the crossing. The readouts share the pnoise analysis'
// cached step factors and closed cycle, so const readouts fill caches and
// one analysis serves one thread at a time.
#pragma once

#include <optional>
#include <string>

#include "rf/pnoise.hpp"

namespace psmn {

/// A measured performance variation with its per-source breakdown.
/// scaledSens[i] = S_i * sigma_i is the "contribution list" of paper
/// eq. 10-11; correlations and derived quantities come from inner products
/// of these lists (core/correlation.hpp).
struct VariationResult {
  std::string measurement;
  std::vector<std::string> sourceNames;
  /// Signed per-source contributions S_i * sigma_i (measurement units).
  RealVector scaledSens;
  /// Sideband-magnitude variance per the paper's eq. 8/9 conventions.
  Real paperVariance = 0.0;

  Real variance() const;
  Real sigma() const;
  /// Contribution (S_i sigma_i)^2 summed over sources whose name starts
  /// with `prefix` (e.g. a device name) — used by eq. 14-16.
  Real varianceFromPrefix(const std::string& prefix) const;
};

struct MismatchAnalysisOptions {
  PssOptions pss;
  PnoiseOptions pnoise;
};

class TransientMismatchAnalysis {
 public:
  explicit TransientMismatchAnalysis(const MnaSystem& sys,
                                     MismatchAnalysisOptions opt = {});

  TransientMismatchAnalysis(const TransientMismatchAnalysis&) = delete;
  TransientMismatchAnalysis& operator=(const TransientMismatchAnalysis&) =
      delete;

  /// Driven circuit: all sources periodic with `period` (or DC).
  void runDriven(Real period, const RealVector* x0guess = nullptr);
  /// Autonomous oscillator (see solvePssAutonomous for the arguments).
  void runAutonomous(Real periodGuess, int phaseIndex,
                     const RealVector& x0guess);

  const PssResult& pss() const;
  const PnoiseAnalysis& pnoise() const;

  /// SS V-A: sigma of the DC component of unknown `outIndex` (e.g. the
  /// comparator offset voltage at the VOS node of the Fig. 6 testbench).
  VariationResult dcVariation(int outIndex) const;

  /// SS V-B: sigma of the time shift (delay) of the periodic waveform at
  /// `outIndex`, from the first-sideband envelope (eq. 8). This reads the
  /// phase of the *fundamental*, i.e. the common shift of the whole
  /// waveform; when the period contains several independently-moving edges
  /// prefer edgeDelayVariation.
  VariationResult delayVariation(int outIndex) const;

  /// Delay variation of one specific edge: the crossing of `level` in
  /// `direction` (+1 rising / -1 falling), occurrence `occurrence` within
  /// the period. Uses the time-domain envelope at the crossing:
  ///   S_i = -Re p_i(tc) / vdot(tc)
  /// (the Fig. 8 statistical waveform evaluated at the edge), which is
  /// exact for a single edge under the linear perturbation model. p_i is
  /// interpolated between the two grid points around the crossing, read
  /// through PnoiseAnalysis::samples.
  VariationResult edgeDelayVariation(int outIndex, Real level, int direction,
                                     int occurrence = 0) const;

  /// SS V-C: sigma of the oscillation frequency (eq. 9), in Hz.
  VariationResult frequencyVariation(int outIndex) const;

  /// Fig. 8: nominal waveform with the sigma(t) envelope
  /// (PnoiseAnalysis::statistical).
  StatisticalWaveform statistical(int outIndex) const;

 private:
  const MnaSystem* sys_;
  MismatchAnalysisOptions opt_;
  std::optional<PssResult> pss_;
  std::optional<PnoiseAnalysis> pnoise_;
};

}  // namespace psmn
