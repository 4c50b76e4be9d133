// End-to-end integration tests: the paper's three benchmark circuits with
// reduced Monte-Carlo sample counts. The full-size runs live in bench/.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/stdcell.hpp"
#include "core/correlation.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/monte_carlo.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "meas/measure.hpp"
#include "rf/pss.hpp"

namespace psmn {
namespace {

TEST(ComparatorIntegration, OffsetSigmaMatchesMonteCarlo) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto tb = buildComparatorTestbench(nl, kit);
  MnaSystem sys(nl);
  const Real T = tb.clkPeriod;

  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 400;
  opt.pss.warmupCycles = 40;
  TransientMismatchAnalysis an(sys, opt);
  an.runDriven(T);
  const VariationResult v = an.dcVariation(tb.vosIndex);
  EXPECT_GT(v.sigma(), 5e-3);
  EXPECT_LT(v.sigma(), 100e-3);

  // Shooting starts from the DC point and converges without the 40-period
  // warm-up, which stays the fallback's length. Its sigma is the
  // warm-started solve's up to the shooting tolerance's footprint.
  EXPECT_EQ(an.pss().shootingIterations, 3);
  EXPECT_EQ(an.pss().stats.steps, 3u * 400u);
  const RealVector warm = pssWarmup(sys, T, opt.pss.warmupCycles, opt.pss);
  TransientMismatchAnalysis warmStarted(sys, opt);
  warmStarted.runDriven(T, &warm);
  const Real sigmaWarm = warmStarted.dcVariation(tb.vosIndex).sigma();
  EXPECT_NEAR(v.sigma(), sigmaWarm, 1e-12 * sigmaWarm);

  // The input pair must dominate (paper Fig. 10).
  const Real inputShare = (v.varianceFromPrefix("M2.") +
                           v.varianceFromPrefix("M3.")) /
                          v.variance();
  EXPECT_GT(inputShare, 0.5);

  // MC ground truth (small N; 95% conf on sigma ~ +-16%).
  auto measure = [&](const MnaSystem& s) -> RealVector {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    topt.storeStates = false;
    RealVector x;
    Real prev = 1e9;
    TranOptions t2 = topt;
    for (int block = 0; block < 8; ++block) {
      t2.initialState = block ? &x : nullptr;
      const TransientResult tr = runTransient(s, 0.0, 20 * T, T / 100, t2);
      x = tr.finalState;
      if (std::fabs(x[tb.vosIndex] - prev) < 2e-4) break;
      prev = x[tb.vosIndex];
    }
    return {x[tb.vosIndex]};
  };
  McOptions mo;
  mo.samples = 80;
  const McResult mc = MonteCarloEngine(sys, mo).run({"vos"}, measure);
  EXPECT_EQ(mc.failedSamples, 0u);
  EXPECT_NEAR(v.sigma() / mc.sigma(), 1.0, 0.3);
}

TEST(ComparatorIntegration, DcMatchCannotSeeDynamicOffsetDominators) {
  // The paper's motivation: the comparator has no informative DC operating
  // point (precharge clamps the outputs), so a DC-based analysis of the
  // output misses the decision-time behaviour that the LPTV analysis
  // captures. We check the testbench is periodic-only: the clock makes the
  // DC point precharged with outp == outn regardless of input offset.
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto tb = buildComparatorTestbench(nl, kit);
  MnaSystem sys(nl);
  tb.comp.fet("M4")->setMismatchDelta(0, 0.05);  // large latch offset
  const DcResult dc = solveDc(sys);
  const Real outDiff = dc.x[nl.nodeIndex(tb.comp.outp)] -
                       dc.x[nl.nodeIndex(tb.comp.outn)];
  // Outputs stay precharged together at DC even with a big latch offset.
  EXPECT_NEAR(outDiff, 0.0, 1e-3);
  nl.clearMismatch();
}

TEST(LogicPathIntegration, DelaySigmaAndCorrelationSplit) {
  for (bool xFirst : {true, false}) {
    Netlist nl;
    auto kit = ProcessKit::cmos130();
    LogicPathOptions lo;
    lo.tRiseX = xFirst ? 1e-9 : 2.5e-9;
    lo.tRiseY = xFirst ? 2.5e-9 : 1e-9;
    const auto lp = buildLogicPath(nl, kit, lo);
    MnaSystem sys(nl);
    const int aIdx = nl.nodeIndex(lp.outA);
    const int bIdx = nl.nodeIndex(lp.outB);
    const Real half = kit.vdd / 2;

    MismatchAnalysisOptions opt;
    opt.pss.stepsPerPeriod = 800;
    opt.pss.warmupCycles = 2;
    TransientMismatchAnalysis an(sys, opt);
    an.runDriven(lp.period);
    const VariationResult dA = an.edgeDelayVariation(aIdx, half, -1);
    const VariationResult dB = an.edgeDelayVariation(bIdx, half, -1);
    const Real rho = correlationOf(dA, dB);
    if (xFirst) {
      // Shared gates a,b -> strong correlation (paper Table I: 0.885).
      EXPECT_GT(rho, 0.5);
      // The shared Y-buffer gates carry most of the shared variance.
      const Real sharedA =
          (dA.varianceFromPrefix("Ga") + dA.varianceFromPrefix("Gb")) /
          dA.variance();
      EXPECT_GT(sharedA, 0.3);
    } else {
      // Disjoint paths -> negligible correlation (paper: 0.01).
      EXPECT_LT(std::fabs(rho), 0.15);
    }

    // Sigma against a small MC.
    auto measure = [&](const MnaSystem& s) -> RealVector {
      TranOptions topt;
      topt.method = IntegrationMethod::kBackwardEuler;
      const TransientResult tr =
          runTransient(s, 0.0, lp.period, lp.period / 800, topt);
      const Waveform win = makeWaveform(
          tr.times, tr.states, nl.nodeIndex(xFirst ? lp.y : lp.x));
      const Waveform wa = makeWaveform(tr.times, tr.states, aIdx);
      const Waveform wb = makeWaveform(tr.times, tr.states, bIdx);
      return {measureDelay(win, wa, half, +1, -1),
              measureDelay(win, wb, half, +1, -1)};
    };
    McOptions mo;
    mo.samples = 120;
    const McResult mc = MonteCarloEngine(sys, mo).run({"dA", "dB"}, measure);
    EXPECT_NEAR(dA.sigma() / mc.sigma(0), 1.0, 0.3);
    EXPECT_NEAR(dB.sigma() / mc.sigma(1), 1.0, 0.3);
  }
}

TEST(LogicPathIntegration, Eq13DifferenceVarianceMatchesMc) {
  // var(dB - dA) from eq. 13 vs. direct MC of the difference (the DNL-style
  // combination of SS V-D).
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto lp = buildLogicPath(nl, kit, {});
  MnaSystem sys(nl);
  const int aIdx = nl.nodeIndex(lp.outA);
  const int bIdx = nl.nodeIndex(lp.outB);
  const Real half = kit.vdd / 2;

  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 800;
  opt.pss.warmupCycles = 2;
  TransientMismatchAnalysis an(sys, opt);
  an.runDriven(lp.period);
  const VariationResult dA = an.edgeDelayVariation(aIdx, half, -1);
  const VariationResult dB = an.edgeDelayVariation(bIdx, half, -1);
  const Real sigmaDiff = std::sqrt(differenceVariance(dA, dB));

  auto measure = [&](const MnaSystem& s) -> RealVector {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    const TransientResult tr =
        runTransient(s, 0.0, lp.period, lp.period / 800, topt);
    const Waveform wy = makeWaveform(tr.times, tr.states, nl.nodeIndex(lp.y));
    const Waveform wa = makeWaveform(tr.times, tr.states, aIdx);
    const Waveform wb = makeWaveform(tr.times, tr.states, bIdx);
    return {measureDelay(wy, wb, half, +1, -1) -
            measureDelay(wy, wa, half, +1, -1)};
  };
  McOptions mo;
  mo.samples = 150;
  const McResult mc = MonteCarloEngine(sys, mo).run({"dDiff"}, measure);
  EXPECT_NEAR(sigmaDiff / mc.sigma(), 1.0, 0.3);
}

TEST(RingOscillatorIntegration, FrequencySigmaMatchesMonteCarlo) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  const int phaseIdx = nl.nodeIndex(osc.stages[0]);

  RealVector kick = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    kick[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.25 : -0.25);
  }
  TranOptions topt;
  topt.method = IntegrationMethod::kBackwardEuler;
  topt.initialState = &kick;
  const TransientResult tr = runTransient(sys, 0.0, 30e-9, 10e-12, topt);
  const Waveform w = makeWaveform(tr.times, tr.states, phaseIdx);
  const Real tGuess = measurePeriod(w, 0.6, 3);

  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 400;
  TransientMismatchAnalysis an(sys, opt);
  an.runAutonomous(tGuess, phaseIdx, tr.finalState);
  const VariationResult fv = an.frequencyVariation(phaseIdx);
  const Real f0 = 1.0 / an.pss().period;
  EXPECT_GT(fv.sigma() / f0, 1e-3);
  EXPECT_LT(fv.sigma() / f0, 0.1);

  const Real dt = an.pss().period / 400;
  const RealVector warm = tr.finalState;
  auto measure = [&](const MnaSystem& s) -> RealVector {
    TranOptions t2;
    t2.method = IntegrationMethod::kBackwardEuler;
    t2.initialState = &warm;
    t2.storeStates = true;
    const TransientResult trk = runTransient(s, 0.0, 20 * tGuess, dt, t2);
    const Waveform wk = makeWaveform(trk.times, trk.states, phaseIdx);
    try {
      return {measureFrequency(wk, 0.6, 6)};
    } catch (const Error& e) {
      throw SampleFailure(e.what());
    }
  };
  McOptions mo;
  mo.samples = 100;
  const McResult mc = MonteCarloEngine(sys, mo).run({"f"}, measure);
  EXPECT_LE(mc.failedSamples, 2u);
  EXPECT_NEAR(fv.sigma() / mc.sigma(), 1.0, 0.25);
}

TEST(RingOscillatorIntegration, PaperEq9AgreesWithProjectionReadout) {
  // For a pure-FM oscillator response the |P1|-based eq. 9 variance and the
  // projected variance coincide.
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  const int phaseIdx = nl.nodeIndex(osc.stages[0]);
  RealVector kick = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    kick[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.25 : -0.25);
  }
  TranOptions topt;
  topt.method = IntegrationMethod::kBackwardEuler;
  topt.initialState = &kick;
  const TransientResult tr = runTransient(sys, 0.0, 30e-9, 10e-12, topt);
  const Waveform w = makeWaveform(tr.times, tr.states, phaseIdx);
  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 400;
  TransientMismatchAnalysis an(sys, opt);
  an.runAutonomous(measurePeriod(w, 0.6, 3), phaseIdx, tr.finalState);
  const VariationResult fv = an.frequencyVariation(phaseIdx);
  EXPECT_NEAR(std::sqrt(fv.paperVariance) / fv.sigma(), 1.0, 0.1);
}

}  // namespace
}  // namespace psmn
