// Example: frequency variation of a 5-stage ring oscillator (paper
// SS IV-C, V-C), with the discrete-adjoint PPV cross-check.
#include <cmath>
#include <cstdio>

#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "util/units.hpp"

using namespace psmn;

int main() {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const RingOscillatorCircuit osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);

  // Kick the ring, free-run to the limit cycle, estimate the period.
  const RingWarmup warm = warmupRingOscillator(sys, osc);
  std::printf("transient period estimate: %ss\n",
              formatEng(warm.periodEstimate).c_str());

  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 400;
  TransientMismatchAnalysis analysis(sys, opt);
  analysis.runAutonomous(warm.periodEstimate, warm.phaseIndex, warm.state);
  const Real f0 = 1.0 / analysis.pss().period;
  std::printf("PSS period: %ss (f0 = %sHz), %d shooting iterations\n",
              formatEng(analysis.pss().period).c_str(),
              formatEng(f0).c_str(), analysis.pss().shootingIterations);

  const VariationResult fv = analysis.frequencyVariation(warm.phaseIndex);
  std::printf("\nsigma(f) = %sHz  (%.3f%% of f0)   [eq. 9 convention: %sHz]\n",
              formatEng(fv.sigma()).c_str(), 100.0 * fv.sigma() / f0,
              formatEng(std::sqrt(fv.paperVariance)).c_str());

  // Independent cross-check: discrete-adjoint PPV period sensitivities,
  // df/dp = -f0^2 dT/dp.
  const RealVector dTdp = analysis.pnoise().periodSensitivity();
  const auto& sources = analysis.pnoise().sources();
  Real var = 0.0;
  for (size_t i = 0; i < sources.size(); ++i) {
    const Real s = -f0 * f0 * dTdp[i] * sources[i].sigma;
    var += s * s;
  }
  std::printf("PPV cross-check: sigma(f) = %sHz\n",
              formatEng(std::sqrt(var)).c_str());

  std::printf("\ntop contributors:\n");
  for (size_t i = 0; i < fv.sourceNames.size(); ++i) {
    if (std::fabs(fv.scaledSens[i]) < 0.15 * fv.sigma()) continue;
    std::printf("  %-10s %sHz\n", fv.sourceNames[i].c_str(),
                formatEng(fv.scaledSens[i], 3).c_str());
  }
  return 0;
}
