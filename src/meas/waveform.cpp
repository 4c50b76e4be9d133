#include "meas/waveform.hpp"

#include "util/status.hpp"

namespace psmn {
namespace {

/// Given bracketing samples (x0,y0), (x1,y1) with y0 != y1, returns the x at
/// which the line crosses `level`.
Real crossingPoint(Real x0, Real y0, Real x1, Real y1, Real level) {
  PSMN_CHECK(y0 != y1, "crossingPoint: degenerate bracket");
  const Real t = (level - y0) / (y1 - y0);
  return x0 + t * (x1 - x0);
}

}  // namespace

std::vector<Real> Waveform::crossings(Real level, int direction) const {
  std::vector<Real> out;
  for (size_t k = 1; k < times.size(); ++k) {
    const Real y0 = values[k - 1];
    const Real y1 = values[k];
    const bool rising = y0 < level && y1 >= level;
    const bool falling = y0 > level && y1 <= level;
    if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
      out.push_back(crossingPoint(times[k - 1], y0, times[k], y1, level));
    }
  }
  return out;
}

std::optional<Real> Waveform::firstCrossing(Real level, int direction,
                                            Real tMin) const {
  for (size_t k = 1; k < times.size(); ++k) {
    const Real y0 = values[k - 1];
    const Real y1 = values[k];
    const bool rising = y0 < level && y1 >= level;
    const bool falling = y0 > level && y1 <= level;
    if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
      const Real tc = crossingPoint(times[k - 1], y0, times[k], y1, level);
      if (tc >= tMin) return tc;
    }
  }
  return std::nullopt;
}

Waveform makeWaveform(const std::vector<Real>& times,
                      const std::vector<RealVector>& states, int index) {
  PSMN_CHECK(index >= 0, "waveform of ground requested");
  PSMN_CHECK(times.size() == states.size(), "times/states length mismatch");
  PSMN_CHECK(states.empty() ||
                 static_cast<size_t>(index) < states.front().size(),
             "waveform index out of range");
  Waveform w;
  w.times = times;
  w.values.resize(states.size());
  for (size_t k = 0; k < states.size(); ++k) {
    w.values[k] = states[k][static_cast<size_t>(index)];
  }
  return w;
}

}  // namespace psmn
