// The mismatch -> pseudo-noise mapping, made inspectable (paper SS III,
// Fig. 2 step 1, Fig. 3/4).
//
// The mechanics of the mapping live in the device mismatch interface
// (circuit/device.hpp) and MnaSystem::collectSources; this header provides
// the reporting/validation layer: a human-readable description of every
// pseudo-noise source and the Pelgrom-model drain-current sigma that checks
// a process kit against the paper's "3 sigma(IDS) = 14%" device anchor.
#pragma once

#include "circuit/mosfet.hpp"
#include "engine/mna.hpp"

namespace psmn {

struct PseudoNoiseSourceInfo {
  std::string name;
  std::string kind;       // "vth", "beta", "resistance", ...
  Real sigma = 0.0;       // parameter std-dev
  Real psdAt1Hz = 0.0;    // sigma^2 (paper: N^2/f with N^2 = sigma^2)
  bool areaScaled = false;
};

/// Describes every mismatch pseudo-noise source in the netlist.
std::vector<PseudoNoiseSourceInfo> describePseudoNoise(const MnaSystem& sys);

/// One-line-per-source report (examples/quickstart).
std::string formatPseudoNoiseReport(const MnaSystem& sys);

/// Relative drain-current sigma of a saturated MOSFET under the Pelgrom
/// model at gate overdrive `veff`:
///   (sigma_I/I)^2 = (gm/I * sigma_VT)^2 + sigma_beta^2,  gm/I = 2/veff.
/// It reads what a model's AVT/Abeta mean at the device level, e.g. the
/// paper's 3*sigma(IDS) anchor at 8.32u/0.13u.
Real relativeIdsSigma(const MosModel& model, Real w, Real l, Real veff);

}  // namespace psmn
