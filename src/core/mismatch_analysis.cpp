#include "core/mismatch_analysis.hpp"

#include <cmath>
#include <numbers>

namespace psmn {

Real VariationResult::variance() const {
  Real acc = 0.0;
  for (Real s : scaledSens) acc += s * s;
  return acc;
}

Real VariationResult::sigma() const { return std::sqrt(variance()); }

Real VariationResult::varianceFromPrefix(const std::string& prefix) const {
  Real acc = 0.0;
  for (size_t i = 0; i < sourceNames.size(); ++i) {
    if (sourceNames[i].rfind(prefix, 0) == 0) {
      acc += scaledSens[i] * scaledSens[i];
    }
  }
  return acc;
}

TransientMismatchAnalysis::TransientMismatchAnalysis(
    const MnaSystem& sys, MismatchAnalysisOptions opt)
    : sys_(&sys), opt_(std::move(opt)) {}

void TransientMismatchAnalysis::runDriven(Real period,
                                          const RealVector* x0guess) {
  pss_ = solvePssDriven(*sys_, period, opt_.pss, x0guess);
  pnoise_.emplace(*sys_, *pss_, opt_.pnoise);
}

void TransientMismatchAnalysis::runAutonomous(Real periodGuess, int phaseIndex,
                                              const RealVector& x0guess) {
  pss_ = solvePssAutonomous(*sys_, periodGuess, phaseIndex, x0guess, opt_.pss);
  pnoise_.emplace(*sys_, *pss_, opt_.pnoise);
}

const PssResult& TransientMismatchAnalysis::pss() const {
  PSMN_CHECK(pss_.has_value(), "run the analysis first");
  return *pss_;
}

const PnoiseAnalysis& TransientMismatchAnalysis::pnoise() const {
  PSMN_CHECK(pnoise_.has_value(), "run the analysis first");
  return *pnoise_;
}

VariationResult TransientMismatchAnalysis::dcVariation(int outIndex) const {
  const PnoiseSideband sb = pnoise().sideband(outIndex, 0);
  const auto& sources = pnoise().sources();
  VariationResult r;
  r.measurement = "dc(" + sys_->netlist().unknownName(outIndex) + ")";
  r.paperVariance = sb.totalPsd;  // baseband PSD at 1 Hz == variance (SS V-A)
  for (size_t i = 0; i < sources.size(); ++i) {
    r.sourceNames.push_back(sources[i].name);
    r.scaledSens.push_back(sb.transfer[i].real() * sources[i].sigma);
  }
  return r;
}

VariationResult TransientMismatchAnalysis::delayVariation(int outIndex) const {
  const PnoiseSideband sb = pnoise().sideband(outIndex, 1);
  const auto& sources = pnoise().sources();
  const Real f0 = 1.0 / pss().period;
  const Cplx v1 = pss().fourier(outIndex, 1);
  PSMN_CHECK(std::abs(v1) > 0.0, "output has no fundamental component");
  const Cplx projector =
      1.0 / (Cplx(0.0, -2.0 * std::numbers::pi_v<Real> * f0) * v1);

  VariationResult r;
  r.measurement = "delay(" + sys_->netlist().unknownName(outIndex) + ")";
  // Paper eq. 8: sigma_D^2 = 2 P1 / ((2 pi f0)^2 Ac^2), Ac = 2|V1|.
  const Real ac = 2.0 * std::abs(v1);
  const Real w0 = 2.0 * std::numbers::pi_v<Real> * f0;
  r.paperVariance = 2.0 * sb.totalPsd / (w0 * w0 * ac * ac);
  for (size_t i = 0; i < sources.size(); ++i) {
    r.sourceNames.push_back(sources[i].name);
    const Real s = (sb.transfer[i] * projector).real();
    r.scaledSens.push_back(s * sources[i].sigma);
  }
  return r;
}

VariationResult TransientMismatchAnalysis::edgeDelayVariation(
    int outIndex, Real level, int direction, int occurrence) const {
  const PssResult& ps = pss();
  const auto& sources = pnoise().sources();
  const size_t m = ps.stepCount();

  // Locate the requested crossing on the periodic nominal waveform.
  const RealVector w = ps.waveform(outIndex);
  int found = -1;
  Real frac = 0.0;
  int count = 0;
  for (size_t k = 0; k < m; ++k) {
    const Real y0 = w[k];
    const Real y1 = w[(k + 1) % m];
    const bool rising = y0 < level && y1 >= level;
    const bool falling = y0 > level && y1 <= level;
    if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
      if (count == occurrence) {
        found = static_cast<int>(k);
        frac = (level - y0) / (y1 - y0);
        break;
      }
      ++count;
    }
  }
  PSMN_CHECK(found >= 0, "edgeDelayVariation: crossing not found");
  const size_t k0 = static_cast<size_t>(found);
  const size_t k1 = (k0 + 1) % m;
  const Real slope = (w[k1] - w[k0]) / ps.stepSize();
  PSMN_CHECK(slope != 0.0, "edgeDelayVariation: flat crossing");

  VariationResult r;
  r.measurement = "edge-delay(" + sys_->netlist().unknownName(outIndex) + ")";
  const size_t points[2] = {k0, k1};
  const CplxVector p = pnoise().samples(outIndex, points);
  for (size_t i = 0; i < sources.size(); ++i) {
    const Cplx p0 = p[2 * i];
    const Cplx p1 = p[2 * i + 1];
    const Real dv = ((1.0 - frac) * p0 + frac * p1).real();
    const Real s = -dv / slope;  // dtc/dp
    r.sourceNames.push_back(sources[i].name);
    r.scaledSens.push_back(s * sources[i].sigma);
  }
  r.paperVariance = r.variance();
  return r;
}

VariationResult TransientMismatchAnalysis::frequencyVariation(
    int outIndex) const {
  const PnoiseSideband sb = pnoise().sideband(outIndex, 1);
  const auto& sources = pnoise().sources();
  const Cplx v1 = pss().fourier(outIndex, 1);
  PSMN_CHECK(std::abs(v1) > 0.0, "output has no fundamental component");
  const Real fOff = PnoiseOptions::offsetFreq;

  VariationResult r;
  r.measurement = "frequency(" + sys_->netlist().unknownName(outIndex) + ")";
  // Paper eq. 9: sigma_f^2 = 4 f^2 P1 / Ac^2, Ac = 2|V1|.
  const Real ac = 2.0 * std::abs(v1);
  r.paperVariance = 4.0 * fOff * fOff * sb.totalPsd / (ac * ac);
  for (size_t i = 0; i < sources.size(); ++i) {
    r.sourceNames.push_back(sources[i].name);
    const Real s = (sb.transfer[i] * fOff / v1).real();
    r.scaledSens.push_back(s * sources[i].sigma);
  }
  return r;
}

StatisticalWaveform TransientMismatchAnalysis::statistical(
    int outIndex) const {
  return pnoise().statistical(outIndex);
}

}  // namespace psmn
