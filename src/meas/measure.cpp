#include "meas/measure.hpp"

#include "util/status.hpp"

namespace psmn {

Real measureDelay(const Waveform& stimulus, const Waveform& response,
                  Real level, int fromDir, int toDir) {
  const auto t0 = stimulus.firstCrossing(level, fromDir);
  PSMN_CHECK(t0.has_value(), "measureDelay: stimulus edge not found");
  const auto t1 = response.firstCrossing(level, toDir, *t0);
  PSMN_CHECK(t1.has_value(), "measureDelay: response edge not found");
  return *t1 - *t0;
}

Real measurePeriod(const Waveform& w, Real level, int cycles) {
  PSMN_CHECK(cycles >= 1, "need at least one cycle");
  const auto rises = w.crossings(level, +1);
  PSMN_CHECK(rises.size() >= static_cast<size_t>(cycles) + 1,
             "measurePeriod: not enough crossings");
  const size_t last = rises.size() - 1;
  return (rises[last] - rises[last - cycles]) / static_cast<Real>(cycles);
}

Real measureFrequency(const Waveform& w, Real level, int cycles) {
  return 1.0 / measurePeriod(w, level, cycles);
}

}  // namespace psmn
