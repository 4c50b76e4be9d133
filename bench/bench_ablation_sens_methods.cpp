// Ablation A (paper SS IV, Fig. 5): three routes to the same mismatch
// sensitivities, compared for agreement and cost.
//
//   1. LPTV pseudo-noise analysis on the PSS (the paper's method),
//   2. direct transient sensitivity analysis (Hocevar-style, the paper's
//      "expensive alternative": cost grows with #parameters and with the
//      simulated time span),
//   3. brute-force finite differences (2 transients per parameter).
//
// Measured on the logic path's falling-edge delay at output A, and — for
// the oscillator — pseudo-noise eq. 9 vs the discrete-adjoint PPV.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"
#include "meas/measure.hpp"
#include "rf/ppv.hpp"
#include "util/units.hpp"

using namespace psmn;
using namespace psmn::benchutil;

int main() {
  header("Ablation A: LPTV pseudo-noise vs transient sensitivity vs finite "
         "differences");
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto lp = buildLogicPath(nl, kit, {});
  MnaSystem sys(nl);
  const int aIdx = nl.nodeIndex(lp.outA);
  const Real half = kit.vdd / 2;
  const auto sources = sys.collectSources();
  std::printf("logic path: %zu mismatch parameters\n\n", sources.size());

  // 1. LPTV (the paper's method).
  Stopwatch sw1;
  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 800;
  opt.pss.warmupCycles = 2;
  TransientMismatchAnalysis an(sys, opt);
  an.runDriven(lp.period);
  const VariationResult lptv = an.edgeDelayVariation(aIdx, half, -1);
  const double tLptv = sw1.seconds();

  // 2. Direct transient sensitivity (all parameters in one sweep, but cost
  //    scales with #parameters and the full time span must be simulated).
  Stopwatch sw2;
  const TransientSensitivityResult ts = runTransientSensitivity(
      sys, 0.0, lp.period, lp.period / 800, sources, {});
  RealVector tranSens(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    tranSens[i] = ts.crossingTimeSensitivity(i, aIdx, half, -1) *
                  sources[i].sigma;
  }
  const double tTran = sw2.seconds();

  // 3. Finite differences (2 transients per parameter).
  Stopwatch sw3;
  auto delayOnce = [&]() {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    const TransientResult tr =
        runTransient(sys, 0.0, lp.period, lp.period / 800, topt);
    const Waveform wy = makeWaveform(tr.times, tr.states, nl.nodeIndex(lp.y));
    const Waveform wa = makeWaveform(tr.times, tr.states, aIdx);
    return measureDelay(wy, wa, half, +1, -1);
  };
  RealVector fdSens(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    Device* dev = sources[i].components[0].device;
    const size_t k = sources[i].components[0].index;
    const Real h = 0.2 * sources[i].sigma;
    dev->setMismatchDelta(k, h);
    const Real dp = delayOnce();
    dev->setMismatchDelta(k, -h);
    const Real dm = delayOnce();
    dev->setMismatchDelta(k, 0.0);
    fdSens[i] = (dp - dm) / (2.0 * h) * sources[i].sigma;
  }
  const double tFd = sw3.seconds();

  // Agreement per parameter (scaled sensitivities, in ps).
  std::printf("%-12s %12s %12s %12s\n", "param", "LPTV (ps)", "tran-sens",
              "finite-diff");
  Real var1 = 0, var2 = 0, var3 = 0, maxRel = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    var1 += lptv.scaledSens[i] * lptv.scaledSens[i];
    var2 += tranSens[i] * tranSens[i];
    var3 += fdSens[i] * fdSens[i];
    if (std::fabs(fdSens[i]) > 0.05e-12) {
      maxRel = std::max(maxRel,
                        std::fabs(lptv.scaledSens[i] - fdSens[i]) /
                            std::fabs(fdSens[i]));
    }
    if (i < 6 || std::fabs(fdSens[i]) > 0.3e-12) {
      std::printf("%-12s %+12.4f %+12.4f %+12.4f\n",
                  lptv.sourceNames[i].c_str(), 1e12 * lptv.scaledSens[i],
                  1e12 * tranSens[i], 1e12 * fdSens[i]);
    }
  }
  rule();
  std::printf("sigma(delay):   %8.4f ps   %8.4f ps   %8.4f ps\n",
              1e12 * std::sqrt(var1), 1e12 * std::sqrt(var2),
              1e12 * std::sqrt(var3));
  std::printf("wall clock:     %8.2f s    %8.2f s    %8.2f s\n", tLptv, tTran,
              tFd);
  std::printf("max |LPTV-FD|/|FD| over significant params: %.1f%%\n",
              100.0 * maxRel);
  std::printf("\nNote the paper's point (SS IV): the LPTV route pays one PSS "
              "+ one linear solve\nindependent of the settling time; the "
              "transient-sensitivity and FD routes scale\nwith the simulated "
              "span and (for FD) with 2x the parameter count.\n");

  // Oscillator: eq. 9 vs discrete-adjoint PPV.
  rule();
  std::printf("oscillator frequency sensitivities: LPTV eq. 9 vs "
              "discrete-adjoint PPV\n");
  Netlist nlo;
  auto kit2 = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nlo, kit2);
  MnaSystem syso(nlo);
  const RingWarmup warm = warmupRingOscillator(syso, osc);
  MismatchAnalysisOptions oopt;
  oopt.pss.stepsPerPeriod = 400;
  TransientMismatchAnalysis ano(syso, oopt);
  Stopwatch swo;
  ano.runAutonomous(warm.periodEstimate, warm.phaseIndex, warm.state);
  const VariationResult fv = ano.frequencyVariation(warm.phaseIndex);
  const double tOscLptv = swo.seconds();
  Stopwatch swp;
  const PpvResult ppv = computePpv(syso, ano.pss());
  const auto oSources = syso.collectSources();
  Real varPpv = 0.0, maxRelOsc = 0.0;
  for (size_t i = 0; i < oSources.size(); ++i) {
    const Real s = ppv.frequencySensitivity(syso, ano.pss(), oSources[i]) *
                   oSources[i].sigma;
    varPpv += s * s;
    if (std::fabs(fv.scaledSens[i]) > 1e5) {
      maxRelOsc = std::max(maxRelOsc, std::fabs(s - fv.scaledSens[i]) /
                                          std::fabs(fv.scaledSens[i]));
    }
  }
  const double tPpv = swp.seconds();
  std::printf("  sigma_f: eq.9 = %s Hz [%.2fs incl. PSS]   PPV = %s Hz "
              "[+%.2fs]   max param dev %.2f%%\n",
              formatEng(fv.sigma(), 4).c_str(), tOscLptv,
              formatEng(std::sqrt(varPpv), 4).c_str(), tPpv,
              100.0 * maxRelOsc);
  return 0;
}
