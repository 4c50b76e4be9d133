// Time-domain cyclostationary noise: sigma(t) of an output along the
// periodic steady state (paper Fig. 8 "statistical waveform").
//
// With quasi-static mismatch pseudo-noise (offset 1 Hz), the envelope
// p^{(i)}(t) is the per-parameter sensitivity of the whole orbit (real on
// a driven orbit, whose LPTV runs at w = 0), so the point-wise standard
// deviation is
//   sigma(t_k)^2 = sum_i |p^{(i)}_k[out]|^2 * sigma_i^2.
// The readout solves on demand: it runs the direct LPTV pass once over the
// period and keeps only the output's row p_k[out] of every source, never
// the full envelopes. Like every pnoise readout it fills the analysis'
// caches, so one analysis serves one thread at a time.
// tests/test_mc_validation.cpp cross-checks this estimate against the
// sample sigma of seeded Monte-Carlo PSS re-solves (the paper's Table II
// comparison in miniature), and tests/test_rf_sparse.cpp checks sigma(t)
// against a DenseLU rebuild of the cyclic system.
#pragma once

#include "rf/pnoise.hpp"

namespace psmn {

struct StatisticalWaveform {
  std::vector<Real> times;  // one period
  RealVector nominal;       // PSS waveform
  RealVector sigma;         // sigma(t)
};

StatisticalWaveform statisticalWaveform(const PnoiseAnalysis& pnoise,
                                        int outIndex);

}  // namespace psmn
