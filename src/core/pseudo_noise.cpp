#include "core/pseudo_noise.hpp"

#include <cmath>
#include <sstream>

#include "util/units.hpp"

namespace psmn {
namespace {

const char* kindName(MismatchKind k) {
  switch (k) {
    case MismatchKind::kVth: return "vth";
    case MismatchKind::kBetaRel: return "beta";
    case MismatchKind::kResistance: return "resistance";
    case MismatchKind::kCapacitance: return "capacitance";
    case MismatchKind::kInductance: return "inductance";
    case MismatchKind::kGeneric: return "generic";
  }
  return "?";
}

}  // namespace

std::vector<PseudoNoiseSourceInfo> describePseudoNoise(const MnaSystem& sys) {
  std::vector<PseudoNoiseSourceInfo> out;
  for (const auto& ref : sys.netlist().mismatchParams()) {
    PseudoNoiseSourceInfo info;
    info.name = ref.param.name;
    info.kind = kindName(ref.param.kind);
    info.sigma = ref.param.sigma;
    info.psdAt1Hz = ref.param.sigma * ref.param.sigma;
    info.areaScaled = ref.param.areaScaled;
    out.push_back(std::move(info));
  }
  return out;
}

std::string formatPseudoNoiseReport(const MnaSystem& sys) {
  std::ostringstream os;
  os << "mismatch -> pseudo-noise mapping (flicker-shaped, PSD = sigma^2 at "
        "1 Hz):\n";
  for (const auto& info : describePseudoNoise(sys)) {
    os << "  " << info.name << " [" << info.kind
       << "] sigma=" << formatEng(info.sigma)
       << " PSD(1Hz)=" << formatEng(info.psdAt1Hz)
       << (info.areaScaled ? " (Pelgrom 1/sqrt(WL))" : "") << "\n";
  }
  return os.str();
}

Real relativeIdsSigma(const MosModel& model, Real w, Real l, Real veff) {
  PSMN_CHECK(w > 0.0 && l > 0.0 && veff > 0.0, "bad geometry/overdrive");
  const Real area = w * l;
  const Real sigmaVt = model.avt / std::sqrt(area);
  const Real sigmaBeta = model.abeta / std::sqrt(area);
  const Real gmOverId = 2.0 / veff;  // saturated square law
  return std::sqrt(gmOverId * gmOverId * sigmaVt * sigmaVt +
                   sigmaBeta * sigmaBeta);
}

}  // namespace psmn
