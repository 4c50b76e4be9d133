// Example: input-offset variation of a StrongARM clocked comparator
// (paper SS IV-A, Fig. 6, Fig. 10).
//
// Builds the offset-nulling feedback testbench, runs the pseudo-noise
// mismatch analysis, and prints sigma(VOS) with the per-transistor
// breakdown and the eq. 14-16 sizing guidance.
#include <cstdio>

#include "circuit/stdcell.hpp"
#include "core/design_sensitivity.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/pseudo_noise.hpp"
#include "util/units.hpp"

using namespace psmn;

int main() {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const ComparatorTestbench tb = buildComparatorTestbench(nl, kit);
  MnaSystem sys(nl);

  std::printf("%s\n", formatPseudoNoiseReport(sys).c_str());

  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 400;
  opt.pss.warmupCycles = 40;
  TransientMismatchAnalysis analysis(sys, opt);
  analysis.runDriven(tb.clkPeriod);
  std::printf("PSS: metastable orbit found in %d shooting iteration(s)\n",
              analysis.pss().shootingIterations);

  const VariationResult v = analysis.dcVariation(tb.vosIndex);
  std::printf("sigma(input offset) = %sV\n\n", formatEng(v.sigma()).c_str());

  std::printf("per-source contributions (S_i * sigma_i):\n");
  for (size_t i = 0; i < v.sourceNames.size(); ++i) {
    if (std::fabs(v.scaledSens[i]) < 0.02 * v.sigma()) continue;
    std::printf("  %-10s %sV\n", v.sourceNames[i].c_str(),
                formatEng(v.scaledSens[i], 3).c_str());
  }

  std::printf("\nwidth sensitivities (eq. 16) — where to spend area:\n");
  for (const auto& ws : widthSensitivities(nl, v)) {
    if (ws.relativeImpact < 0.01) continue;
    std::printf("  %-5s W=%sum  impact %.1f%%  dVar/dW=%s\n",
                ws.device.c_str(), formatEng(1e6 * ws.width, 3).c_str(),
                100.0 * ws.relativeImpact,
                formatEng(ws.dVarianceDWidth, 3).c_str());
  }
  return 0;
}
