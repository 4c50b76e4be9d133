// Linear crossing interpolation shared by the waveform measurements.
#pragma once

#include "numeric/types.hpp"

namespace psmn {

/// Given bracketing samples (x0,y0), (x1,y1) with y0 != y1, returns the x at
/// which the line crosses `level`.
Real crossingPoint(Real x0, Real y0, Real x1, Real y1, Real level);

}  // namespace psmn
