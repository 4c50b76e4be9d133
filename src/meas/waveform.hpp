// Waveform container + crossing utilities shared by all measurements.
#pragma once

#include <optional>

#include "numeric/types.hpp"

namespace psmn {

struct Waveform {
  std::vector<Real> times;
  RealVector values;

  size_t size() const { return times.size(); }
  bool empty() const { return times.empty(); }

  /// All times where the waveform crosses `level` in the given direction
  /// (+1 rising, -1 falling, 0 both), linearly interpolated.
  std::vector<Real> crossings(Real level, int direction = 0) const;

  /// First crossing at/after tMin; nullopt if none.
  std::optional<Real> firstCrossing(Real level, int direction,
                                    Real tMin = -1e300) const;
};

/// Builds a waveform from parallel time/state storage (e.g. a transient or
/// PSS trajectory) for MNA unknown `index`.
Waveform makeWaveform(const std::vector<Real>& times,
                      const std::vector<RealVector>& states, int index);

}  // namespace psmn
