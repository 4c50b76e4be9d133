// End-to-end gates of the paper's claims on its three benchmark circuits:
// sigmas and correlations against Monte Carlo (Tables I-II, Figs. 9-12),
// the comparator's input-pair share (Fig. 10), and the logic path's edge
// gains against transient sensitivity and finite differences (ablation A).
// docs/theory.md "Where each claim is tested" maps every paper artifact to
// its gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "circuit/stdcell.hpp"
#include "core/correlation.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/monte_carlo.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"
#include "meas/measure.hpp"
#include "numeric/statistics.hpp"
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

    // Table I's Monte-Carlo correlation. Fisher's z = atanh(rho) of an
    // N-sample correlation is normal with standard deviation 1/sqrt(N - 3)
    // around the true z, so the sample rho lies within 1.96/sqrt(117) =
    // 0.181 of the estimate in z 95% of the time (no sample fails here).
    const Real rhoMc = mc.correlationBetween(0, 1);
    const Real zGap = std::fabs(std::atanh(rhoMc) - std::atanh(rho));
    EXPECT_LE(zGap, 1.96 / std::sqrt(static_cast<Real>(mo.samples - 3)))
        << "rho_pn " << rho << " rho_MC " << rhoMc;
  }
}

TEST(LogicPathIntegration, EdgeGainsMatchTransientSensitivityAndFd) {
  // Ablation A (paper SS IV): three routes to the falling-edge delay gain
  // of every source at output A must agree on the same 800-step
  // backward-Euler grid: the LPTV readout on the periodic orbit, the direct
  // transient sensitivity of a one-period transient, and the central
  // difference of the Monte-Carlo measurement itself.
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto lp = buildLogicPath(nl, kit, {});
  MnaSystem sys(nl);
  const int aIdx = nl.nodeIndex(lp.outA);
  const Real half = kit.vdd / 2;
  const Real dt = lp.period / 800;

  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 800;
  opt.pss.warmupCycles = 2;
  TransientMismatchAnalysis an(sys, opt);
  an.runDriven(lp.period);
  const VariationResult lptv = an.edgeDelayVariation(aIdx, half, -1);
  const auto sources = sys.collectSources();
  ASSERT_EQ(sources.size(), 32u);
  ASSERT_EQ(lptv.scaledSens.size(), sources.size());
  Real largest = 0.0;
  for (Real g : lptv.scaledSens) largest = std::max(largest, std::fabs(g));

  const TransientSensitivityResult ts =
      runTransientSensitivity(sys, 0.0, lp.period, dt, sources, {});
  const auto delay = [&] {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    const TransientResult tr = runTransient(sys, 0.0, lp.period, dt, topt);
    return measureDelay(makeWaveform(tr.times, tr.states, nl.nodeIndex(lp.y)),
                        makeWaveform(tr.times, tr.states, aIdx), half, +1,
                        -1);
  };
  for (size_t i = 0; i < sources.size(); ++i) {
    // Both differentiate the same backward-Euler recursion; they differ
    // only by where the orbit comes from (shooting from the DC point
    // against one transient from it) and by the Newton tolerances, so the
    // gains agree to about 1e-9 of the largest; 1e-8 leaves a 13x margin.
    const Real tsGain = ts.crossingTimeSensitivity(i, aIdx, half, -1) *
                        sources[i].sigma;
    EXPECT_NEAR(lptv.scaledSens[i], tsGain, 1e-8 * largest)
        << lptv.sourceNames[i];

    // The central difference at +-0.01 sigma_i carries a truncation error
    // of O(h^2): at +-0.2 sigma_i the largest gap reads 1.8e-3, which
    // scales by (0.01/0.2)^2 to 4.5e-6, what this step measures. The 1e-4
    // bound leaves a 22x margin and is still 18x tighter than the gap at
    // +-0.2 sigma_i.
    Device* dev = sources[i].components[0].device;
    const size_t k = sources[i].components[0].index;
    const Real h = 0.01 * sources[i].sigma;
    dev->setMismatchDelta(k, h);
    const Real up = delay();
    dev->setMismatchDelta(k, -h);
    const Real down = delay();
    dev->setMismatchDelta(k, 0.0);
    const Real fdGain = (up - down) / (2.0 * h) * sources[i].sigma;
    EXPECT_NEAR(lptv.scaledSens[i], fdGain, 1e-4 * largest)
        << lptv.sourceNames[i];
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

/// Paper Figs. 11/12 on a near-threshold ring (VDD 0.7 V, small devices,
/// 10 fF loads), whose square-law devices turn nonlinear within the swept
/// mismatch. Returns the linear estimate's error against MC-256, with the
/// sigma normalized as the paper's Fig. 11 normalizes it:
/// (sigma_pn / f0) / (sigma_MC / mean_MC) - 1.
struct NearThresholdRingPoint {
  Real error = 0.0;
  Real sigmaRatio = 0.0;  // sigma_pn / sigma_MC, without the mean shift
  Real meanShift = 0.0;   // mean_MC / f0
  size_t okSamples = 0;
  size_t failedSamples = 0;
};

NearThresholdRingPoint nearThresholdRingError(Real mismatchScale) {
  const auto build = [mismatchScale](Netlist& nl) {
    auto kit = ProcessKit::cmos130(mismatchScale);
    kit.vdd = 0.7;
    RingOscillatorOptions oo;
    oo.wn = 0.5e-6;
    oo.wp = 1e-6;
    oo.cLoad = 10e-15;
    return buildRingOscillator(nl, kit, oo);
  };
  Netlist nl;
  const auto osc = build(nl);
  MnaSystem sys(nl);
  const RingWarmup warm = warmupRingOscillator(sys, osc, 60e-9, 20e-12);
  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 400;
  TransientMismatchAnalysis an(sys, opt);
  an.runAutonomous(warm.periodEstimate, warm.phaseIndex, warm.state);
  const Real f0 = 1.0 / an.pss().period;
  const Real sigmaPn = an.frequencyVariation(warm.phaseIndex).sigma();

  // Each sample runs 25 periods from the nominal orbit's warm state and
  // measures the frequency at VDD/2 over the last 8 cycles; a draw that
  // stops oscillating is a failed sample.
  const Real dt = an.pss().period / 400;
  const auto measure = [&](const MnaSystem& s) -> RealVector {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    topt.initialState = &warm.state;
    const TransientResult tr =
        runTransient(s, 0.0, 25 * warm.periodEstimate, dt, topt);
    try {
      return {measureFrequency(
          makeWaveform(tr.times, tr.states, warm.phaseIndex), 0.35, 8)};
    } catch (const Error& e) {
      throw SampleFailure(e.what());
    }
  };
  McOptions mo;
  mo.samples = 256;
  mo.jobs = 4;
  mo.keepSamples = false;
  MonteCarloEngine engine(sys, mo);
  engine.setNetlistFactory([&build] {
    auto copy = std::make_unique<Netlist>();
    build(*copy);
    return copy;
  });
  const McResult mc = engine.run({"f"}, measure);

  NearThresholdRingPoint p;
  p.error = (sigmaPn / f0) / (mc.sigma() / mc.meanOf()) - 1.0;
  p.sigmaRatio = sigmaPn / mc.sigma();
  p.meanShift = mc.meanOf() / f0;
  p.okSamples = mc.moments[0].count();
  p.failedSamples = mc.failedSamples;
  return p;
}

TEST(RingOscillatorIntegration, LinearEstimateFailsAsMismatchGrows) {
  // Both points draw MC-256 on four slots. sigma_MC from n samples lies
  // within +-sigmaConfidence95(n) = 1.96/sqrt(2(n - 1)) of the true sigma
  // 95% of the time (8.7% at n = 256), and the error above is relative to
  // sigma_MC, so a linear estimate that holds reads inside that band.
  //
  // At the process's own mismatch scaled by 0.5 the ring is still linear:
  // the error must lie inside the band (it reads +3.7%, no sample fails).
  const NearThresholdRingPoint mild = nearThresholdRingError(0.5);
  const Real mildBand = sigmaConfidence95(mild.okSamples);
  EXPECT_EQ(mild.failedSamples, 0u);
  EXPECT_LE(std::fabs(mild.error), mildBand)
      << "error " << mild.error << ", sigma_pn/sigma_MC "
      << mild.sigmaRatio << ", mean_MC/f0 " << mild.meanShift;

  // At 3.5x the linear estimate must fall below the band: the paper's
  // Fig. 11/12 finding that it underestimates a skewed distribution. It
  // reads -27.3% against an 8.9% band with 12 of 256 samples failed. Most
  // of that is the MC mean shifting to 0.77 f0, a second-order effect a
  // linear estimate cannot see: sigma_pn / sigma_MC alone reads -5.5%.
  const NearThresholdRingPoint severe = nearThresholdRingError(3.5);
  const Real severeBand = sigmaConfidence95(severe.okSamples);
  EXPECT_LT(severe.error, -severeBand)
      << "error " << severe.error << ", sigma_pn/sigma_MC "
      << severe.sigmaRatio << ", mean_MC/f0 " << severe.meanShift;
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
