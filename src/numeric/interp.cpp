#include "numeric/interp.hpp"

#include "util/status.hpp"

namespace psmn {

Real crossingPoint(Real x0, Real y0, Real x1, Real y1, Real level) {
  PSMN_CHECK(y0 != y1, "crossingPoint: degenerate bracket");
  const Real t = (level - y0) / (y1 - y0);
  return x0 + t * (x1 - x0);
}

}  // namespace psmn
