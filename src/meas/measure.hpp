// Performance measurements on waveforms: delay and period/frequency. These
// are what the Monte-Carlo baseline measures per sample; the pseudo-noise
// analysis predicts their variations without sampling.
#pragma once

#include "meas/waveform.hpp"

namespace psmn {

/// Delay from the `fromDir` crossing of `stimulus` through `level` to the
/// `toDir` crossing of `response` through `level` (paper Fig. 7: rising
/// input edge to falling output edge). Throws if either edge is missing.
Real measureDelay(const Waveform& stimulus, const Waveform& response,
                  Real level, int fromDir, int toDir);

/// Average period from the rising crossings through `level`, using the
/// last `cycles` full periods. Throws when not enough crossings exist.
Real measurePeriod(const Waveform& w, Real level, int cycles = 4);

Real measureFrequency(const Waveform& w, Real level, int cycles = 4);

}  // namespace psmn
