// Mismatch sensitivity of a performance variation to design parameters
// (paper SS VII, eq. 14-16).
//
// Under the Pelgrom model both sigma_VT^2 and sigma_beta^2 scale as
// 1/(W*L), so the variation contributed by one transistor scales the same
// way and
//   d sigma_P^2 / dW = -( sigma_{P,VT}^2 + sigma_{P,beta}^2 ) / W
// (eq. 16; same form for L). This uses only the contribution breakdown —
// no additional simulation — which is the paper's key optimization-loop
// advantage over Monte-Carlo. Note it intentionally ignores the effect of
// W on the *nominal* operating point (the paper's convention);
// DesignSensitivity.UpsizingReducesVarianceAsPredicted (tests/test_core.cpp)
// re-runs the analysis at a doubled width to check it.
#pragma once

#include "circuit/mosfet.hpp"
#include "core/mismatch_analysis.hpp"

namespace psmn {

struct WidthSensitivity {
  std::string device;
  Real width = 0.0;
  Real varianceShare = 0.0;   // sigma_{P,dev}^2 (this device's contribution)
  Real dVarianceDWidth = 0.0; // d sigma_P^2 / dW  (eq. 16)
  /// Relative form d(sigma_P^2)/sigma_P^2 per relative dW/W — a unitless
  /// ranking of which device to upsize first (paper Fig. 10).
  Real relativeImpact = 0.0;
};

/// Per-MOSFET width sensitivities of the variation `v` (paper Fig. 10).
/// Sources must follow the "<device>.<param>" naming of collectSources.
std::vector<WidthSensitivity> widthSensitivities(const Netlist& netlist,
                                                 const VariationResult& v);

}  // namespace psmn
