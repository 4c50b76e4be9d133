// Quickstart: the paper's flow end-to-end on a five-minute example.
//
// Circuit: a two-stage RC pulse-shaping network whose resistors have
// random mismatch. Measurement: the 50%-crossing delay of the output.
// We run
//   1. the pseudo-noise mismatch analysis (PSS + LPTV noise at 1 Hz), and
//   2. a small Monte-Carlo as ground truth,
// and print sigma(delay) from both along with the per-source breakdown —
// the same flow the benchmark circuits use, minus the transistors.
#include <cstdio>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/monte_carlo.hpp"
#include "engine/transient.hpp"
#include "meas/measure.hpp"
#include "util/units.hpp"

using namespace psmn;

int main() {
  // ---- build the circuit ------------------------------------------------
  const Real period = 1e-6;
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId mid = nl.node("mid");
  const NodeId out = nl.node("out");
  nl.add<VSource>("VIN", in, kGround,
                  SourceWave::pulse(0.0, 1.0, 0.1e-6, 10e-9, 10e-9, 0.4e-6,
                                    period),
                  nl);
  nl.add<Resistor>("R1", in, mid, 10e3, nl, /*sigma=*/200.0);
  nl.add<Capacitor>("C1", mid, kGround, 4e-12, nl);
  nl.add<Resistor>("R2", mid, out, 10e3, nl, /*sigma=*/200.0);
  nl.add<Capacitor>("C2", out, kGround, 4e-12, nl);
  MnaSystem sys(nl);
  const int outIdx = nl.nodeIndex(out);
  const int inIdx = nl.nodeIndex(in);

  // ---- pseudo-noise mismatch analysis (the paper's method) --------------
  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 500;
  TransientMismatchAnalysis analysis(sys, opt);
  analysis.runDriven(period);

  const VariationResult delayVar = analysis.delayVariation(outIdx);
  std::printf("pseudo-noise analysis (PSS %d shooting iters):\n",
              analysis.pss().shootingIterations);
  std::printf("  sigma(delay) = %ss  [paper-eq.8 convention: %ss]\n",
              formatEng(delayVar.sigma()).c_str(),
              formatEng(std::sqrt(delayVar.paperVariance)).c_str());
  std::printf("  breakdown:\n");
  for (size_t i = 0; i < delayVar.sourceNames.size(); ++i) {
    std::printf("    %-8s %ss\n", delayVar.sourceNames[i].c_str(),
                formatEng(delayVar.scaledSens[i]).c_str());
  }

  // ---- Monte-Carlo ground truth -----------------------------------------
  auto measureDelayOnce = [&](const MnaSystem& s) -> RealVector {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    const TransientResult tr =
        runTransient(s, 0.0, period, period / 500.0, topt);
    const Waveform win = makeWaveform(tr.times, tr.states, inIdx);
    const Waveform wout = makeWaveform(tr.times, tr.states, outIdx);
    return {measureDelay(win, wout, 0.5, +1, +1)};
  };

  McOptions mopt;
  mopt.samples = 300;
  MonteCarloEngine mc(sys, mopt);
  const McResult mcr = mc.run({"delay"}, measureDelayOnce);
  std::printf("monte-carlo (%zu samples, %.2fs):\n", mopt.samples,
              mcr.elapsedSeconds);
  std::printf("  sigma(delay) = %ss  (95%% conf +-%.1f%%)\n",
              formatEng(mcr.sigma()).c_str(),
              100.0 * sigmaConfidence95(mopt.samples));

  const Real ratio = delayVar.sigma() / mcr.sigma();
  std::printf("agreement: pseudo-noise / MC sigma ratio = %.3f\n", ratio);
  return (ratio > 0.8 && ratio < 1.25) ? 0 : 1;
}
