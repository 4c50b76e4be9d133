// Core-layer tests: the mismatch-analysis API, DC-match baseline,
// Monte-Carlo engine, correlation math (eq. 12/13), correlated mismatch
// (eq. 6), design sensitivities (eq. 14-16), Gaussian-mixture extension.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stdcell.hpp"
#include "core/correlation.hpp"
#include "core/correlated_mismatch.hpp"
#include "core/dc_match.hpp"
#include "core/design_sensitivity.hpp"
#include "core/gaussian_mixture.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/monte_carlo.hpp"
#include "core/pseudo_noise.hpp"
#include "engine/sensitivity.hpp"
#include "engine/transient.hpp"
#include "meas/measure.hpp"

namespace psmn {
namespace {

// ------------------------------------------------------------- DC match

TEST(DcMatch, DividerVariance) {
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(2.0), nl);
  nl.add<Resistor>("R1", top, mid, 1e3, nl, 10.0);
  nl.add<Resistor>("R2", mid, kGround, 1e3, nl, 10.0);
  MnaSystem sys(nl);
  const VariationResult v = dcMatchAnalysis(sys, nl.nodeIndex(mid));
  // sigma = sqrt(2) * 0.5e-3 * 10.
  EXPECT_NEAR(v.sigma(), std::sqrt(2.0) * 5e-3, 1e-8);
  ASSERT_EQ(v.scaledSens.size(), 2u);
  EXPECT_NEAR(v.scaledSens[0], -5e-3, 1e-8);
  EXPECT_NEAR(v.scaledSens[1], +5e-3, 1e-8);
  // Anti-correlated contributions -> difference variance doubles, sum ~ 0.
  EXPECT_NEAR(correlationOf(v, v), 1.0, 1e-12);
}

// ------------------------------------------------------ correlation math

VariationResult makeVariation(std::vector<Real> scaled) {
  VariationResult v;
  v.measurement = "test";
  for (size_t i = 0; i < scaled.size(); ++i) {
    v.sourceNames.push_back("s" + std::to_string(i));
    v.scaledSens.push_back(scaled[i]);
  }
  return v;
}

TEST(CorrelationMath, InnerProductIdentities) {
  const VariationResult a = makeVariation({3.0, 4.0});
  const VariationResult b = makeVariation({3.0, -4.0});
  EXPECT_DOUBLE_EQ(a.variance(), 25.0);
  EXPECT_DOUBLE_EQ(covarianceOf(a, b), 9.0 - 16.0);
  EXPECT_DOUBLE_EQ(correlationOf(a, b), -7.0 / 25.0);
  // eq. 13: var(b-a) = var(a)+var(b)-2cov.
  EXPECT_DOUBLE_EQ(differenceVariance(a, b), 25.0 + 25.0 - 2.0 * (-7.0));
  EXPECT_DOUBLE_EQ(sumVariance(a, b), 25.0 + 25.0 + 2.0 * (-7.0));
  // Difference of a variation with itself has zero variance.
  EXPECT_NEAR(differenceVariance(a, a), 0.0, 1e-12);
}

TEST(CorrelationMath, RejectsMismatchedSourceSets) {
  const VariationResult a = makeVariation({1.0});
  VariationResult b = makeVariation({1.0});
  b.sourceNames[0] = "other";
  EXPECT_THROW(covarianceOf(a, b), Error);
}

TEST(CorrelationMath, McCorrelationMatchesEq12OnSharedSourceDividers) {
  // Two dividers sharing R1: outputs are correlated through it.
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  const NodeId out2 = nl.node("out2");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(2.0), nl);
  nl.add<Resistor>("R1", top, mid, 1e3, nl, 10.0);
  nl.add<Resistor>("R2", mid, kGround, 1e3, nl, 10.0);
  nl.add<Resistor>("R3", mid, out2, 1e3, nl, 10.0);
  nl.add<Resistor>("R4", out2, kGround, 1e3, nl, 10.0);
  MnaSystem sys(nl);
  const VariationResult va = dcMatchAnalysis(sys, nl.nodeIndex(mid));
  const VariationResult vb = dcMatchAnalysis(sys, nl.nodeIndex(out2));
  const Real rhoPredicted = correlationOf(va, vb);

  McOptions mo;
  mo.samples = 4000;
  MonteCarloEngine mc(sys, mo);
  const McResult r = mc.run({"vmid", "vout2"}, [&](const MnaSystem& s) {
    const DcResult dc = solveDc(s);
    return RealVector{dc.x[nl.nodeIndex(mid)], dc.x[nl.nodeIndex(out2)]};
  });
  EXPECT_NEAR(r.correlationBetween(0, 1), rhoPredicted, 0.05);
  EXPECT_NEAR(r.sigma(0), va.sigma(), 0.05 * va.sigma());
  EXPECT_NEAR(r.sigma(1), vb.sigma(), 0.05 * vb.sigma());
}

// ---------------------------------------------------------- Monte-Carlo

TEST(MonteCarlo, DeterministicAcrossRuns) {
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<ISource>("I1", kGround, a, SourceWave::dc(1e-3), nl);
  nl.add<Resistor>("R1", a, kGround, 1e3, nl, 10.0);
  MnaSystem sys(nl);
  auto measure = [&](const MnaSystem& s) {
    return RealVector{solveDc(s).x[nl.nodeIndex(a)]};
  };
  McOptions mo;
  mo.samples = 50;
  McResult r1 = MonteCarloEngine(sys, mo).run({"v"}, measure);
  McResult r2 = MonteCarloEngine(sys, mo).run({"v"}, measure);
  ASSERT_EQ(r1.samples.size(), r2.samples.size());
  for (size_t i = 0; i < r1.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.samples[i][0], r2.samples[i][0]);
  }
  mo.seed = 2;
  McResult r3 = MonteCarloEngine(sys, mo).run({"v"}, measure);
  EXPECT_NE(r1.samples[0][0], r3.samples[0][0]);
}

TEST(MonteCarlo, RecoverAnalyticSigma) {
  // v = I*R: sigma_v = I*sigma_R = 1e-3*10 = 10 mV.
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<ISource>("I1", kGround, a, SourceWave::dc(1e-3), nl);
  nl.add<Resistor>("R1", a, kGround, 1e3, nl, 10.0);
  MnaSystem sys(nl);
  McOptions mo;
  mo.samples = 3000;
  McResult r = MonteCarloEngine(sys, mo).run({"v"}, [&](const MnaSystem& s) {
    return RealVector{solveDc(s).x[nl.nodeIndex(a)]};
  });
  EXPECT_NEAR(r.sigma(), 10e-3, 0.5e-3);
  EXPECT_NEAR(r.meanOf(), 1.0, 1e-3);
  EXPECT_EQ(r.failedSamples, 0u);
}

TEST(MonteCarlo, FailedSamplesAreCounted) {
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<ISource>("I1", kGround, a, SourceWave::dc(1e-3), nl);
  nl.add<Resistor>("R1", a, kGround, 1e3, nl, 10.0);
  MnaSystem sys(nl);
  McOptions mo;
  mo.samples = 20;
  int count = 0;
  McResult r = MonteCarloEngine(sys, mo).run({"v"}, [&](const MnaSystem&) {
    if (++count % 4 == 0) throw SampleFailure("synthetic");
    return RealVector{1.0};
  });
  EXPECT_EQ(r.failedSamples, 5u);
  EXPECT_EQ(r.moments[0].count(), 15u);
}

TEST(MonteCarlo, ThrowingMeasurementLeavesNoMismatch) {
  // A measurement that throws anything but SampleFailure ends the run. The
  // sample's draw must not outlive it on the caller's netlist, or every
  // later analysis of that netlist would run on a mismatched circuit. With
  // no netlist factory, jobs = 2 runs on the primary netlist too.
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(1.0), nl);
  nl.add<Resistor>("R1", top, mid, 1e3, nl, 10.0);
  nl.add<Resistor>("R2", mid, kGround, 1e3, nl, 10.0);
  MnaSystem sys(nl);
  for (size_t jobs : {1u, 2u}) {
    McOptions mo;
    mo.samples = 8;
    mo.jobs = jobs;
    int calls = 0;
    const McMeasure measure = [&](const MnaSystem& s) {
      if (++calls == 3) throw ConvergenceError("synthetic");
      return RealVector{solveDc(s).x[nl.nodeIndex(mid)]};
    };
    EXPECT_THROW(MonteCarloEngine(sys, mo).run({"v"}, measure),
                 ConvergenceError);
    EXPECT_EQ(calls, 3) << "jobs=" << jobs;
    for (const auto& p : nl.mismatchParams()) {
      EXPECT_EQ(p.device->mismatchDelta(p.index), 0.0)
          << p.param.name << " jobs=" << jobs;
    }
  }
}

// ------------------------------------------------- correlated mismatch

TEST(CorrelatedMismatch, PerfectCorrelationCancelsInDivider) {
  // Fully correlated R1/R2 mismatch leaves the divider ratio unchanged.
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(2.0), nl);
  auto& r1 = nl.add<Resistor>("R1", top, mid, 1e3, nl, 10.0);
  auto& r2 = nl.add<Resistor>("R2", mid, kGround, 1e3, nl, 10.0);
  MnaSystem sys(nl);

  CorrelatedMismatch corr;
  corr.addUniformCorrelationGroup({{&r1, 0}, {&r2, 0}}, 1.0);
  EXPECT_TRUE(corr.covers(&r1, 0));
  EXPECT_TRUE(corr.covers(&r2, 0));

  // Pseudo-noise side: composite sources give (near) zero output variance.
  const auto sources = corr.transformSources(sys.collectSources());
  const DcResult dc = solveDc(sys);
  const RealVector sens =
      solveDcSensitivity(sys, dc.x, nl.nodeIndex(mid), sources);
  Real var = 0.0;
  for (size_t i = 0; i < sources.size(); ++i) {
    var += sens[i] * sens[i] * sources[i].sigma * sources[i].sigma;
  }
  EXPECT_NEAR(std::sqrt(var), 0.0, 1e-9);

  // Monte-Carlo side agrees.
  McOptions mo;
  mo.samples = 500;
  MonteCarloEngine mc(sys, mo);
  mc.setCorrelatedMismatch(&corr);
  const McResult r = mc.run({"v"}, [&](const MnaSystem& s) {
    return RealVector{solveDc(s).x[nl.nodeIndex(mid)]};
  });
  EXPECT_NEAR(r.sigma(), 0.0, 1e-6);
}

class CorrelatedRho : public ::testing::TestWithParam<Real> {};

TEST_P(CorrelatedRho, DividerVarianceInterpolatesWithRho) {
  // var(vmid) = (dV/dR1 s1)^2 + (dV/dR2 s2)^2 + 2 rho (dV/dR1 s1)(dV/dR2 s2)
  const Real rho = GetParam();
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(2.0), nl);
  auto& r1 = nl.add<Resistor>("R1", top, mid, 1e3, nl, 10.0);
  auto& r2 = nl.add<Resistor>("R2", mid, kGround, 1e3, nl, 10.0);
  MnaSystem sys(nl);
  CorrelatedMismatch corr;
  corr.addUniformCorrelationGroup({{&r1, 0}, {&r2, 0}}, rho);

  const Real s = 5e-3;  // |dV/dRi| * sigma
  const Real expected = std::sqrt(2.0 * s * s - 2.0 * rho * s * s);

  const auto sources = corr.transformSources(sys.collectSources());
  const DcResult dc = solveDc(sys);
  const RealVector sens =
      solveDcSensitivity(sys, dc.x, nl.nodeIndex(mid), sources);
  Real var = 0.0;
  for (size_t i = 0; i < sources.size(); ++i) {
    var += sens[i] * sens[i] * sources[i].sigma * sources[i].sigma;
  }
  EXPECT_NEAR(std::sqrt(var), expected, 1e-6 + 1e-6 * expected);

  McOptions mo;
  mo.samples = 3000;
  MonteCarloEngine mc(sys, mo);
  mc.setCorrelatedMismatch(&corr);
  const McResult r = mc.run({"v"}, [&](const MnaSystem& s2) {
    return RealVector{solveDc(s2).x[nl.nodeIndex(mid)]};
  });
  EXPECT_NEAR(r.sigma(), expected, 0.06 * expected + 2e-4);
}

INSTANTIATE_TEST_SUITE_P(Rhos, CorrelatedRho,
                         ::testing::Values(-0.5, 0.0, 0.3, 0.7, 0.95));

TEST(CorrelatedMismatch, RejectsDoubleMembership) {
  Netlist nl;
  const NodeId a = nl.node("a");
  auto& r1 = nl.add<Resistor>("R1", a, kGround, 1e3, nl, 10.0);
  auto& r2 = nl.add<Resistor>("R2", a, kGround, 1e3, nl, 10.0);
  CorrelatedMismatch corr;
  corr.addUniformCorrelationGroup({{&r1, 0}, {&r2, 0}}, 0.5);
  EXPECT_THROW(corr.addUniformCorrelationGroup({{&r1, 0}}, 0.0), Error);
}

// --------------------------------------------------- design sensitivity

TEST(DesignSensitivity, Eq16FromBreakdown) {
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add<VSource>("VDD", vdd, kGround, SourceWave::dc(kit.vdd), nl);
  nl.add<VSource>("VIN", in, kGround, SourceWave::dc(0.55), nl);
  const InverterCell cell = addInverter(nl, "G1", in, out, vdd, kit, 0.6e-6,
                                        1.2e-6);
  MnaSystem sys(nl);
  const VariationResult v = dcMatchAnalysis(sys, nl.nodeIndex(out));
  const auto ws = widthSensitivities(nl, v);
  ASSERT_EQ(ws.size(), 2u);
  Real shareSum = 0.0;
  for (const auto& w : ws) {
    shareSum += w.varianceShare;
    EXPECT_NEAR(w.dVarianceDWidth, -w.varianceShare / w.width, 1e-18);
    EXPECT_GE(w.relativeImpact, 0.0);
    EXPECT_LE(w.relativeImpact, 1.0);
  }
  EXPECT_NEAR(shareSum, v.variance(), 1e-9 * v.variance());
  (void)cell;
}

TEST(DesignSensitivity, UpsizingReducesVarianceAsPredicted) {
  // Verify eq. 16's 1/W scaling by actually re-running with 2x width of
  // the device. A diode-connected NMOS biased by a current source has
  // dVout/dVT ~ 1 nearly independent of W, isolating the Pelgrom scaling
  // from nominal-operating-point shifts.
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const NodeId out = nl.node("out");
  nl.add<ISource>("IB", kGround, out, SourceWave::dc(50e-6), nl);
  auto& fet = nl.add<Mosfet>("M1", out, out, kGround, kGround, kit.nmos,
                             2e-6, 0.13e-6, nl);
  MnaSystem sys(nl);
  const VariationResult v1 = dcMatchAnalysis(sys, nl.nodeIndex(out));
  const Real share1 = v1.varianceFromPrefix("M1.");
  // eq. 16 from the breakdown alone, at the original width:
  const auto ws = widthSensitivities(nl, v1);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_NEAR(ws[0].dVarianceDWidth, -share1 / 2e-6, 1e-9 * share1 / 2e-6);

  fet.setWidth(4e-6);  // 2x
  const VariationResult v2 = dcMatchAnalysis(sys, nl.nodeIndex(out));
  const Real share2 = v2.varianceFromPrefix("M1.");
  // Pelgrom: sigma^2 halves; the mild veff change adds some slack.
  EXPECT_NEAR(share2 / share1, 0.5, 0.12);
}

// --------------------------------------------------- pseudo-noise report

TEST(PseudoNoiseReport, DescribesAllSources) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  buildComparatorTestbench(nl, kit);
  MnaSystem sys(nl);
  const auto infos = describePseudoNoise(sys);
  EXPECT_EQ(infos.size(), 22u);
  for (const auto& info : infos) {
    EXPECT_GT(info.sigma, 0.0);
    EXPECT_NEAR(info.psdAt1Hz, info.sigma * info.sigma, 1e-18);
    EXPECT_TRUE(info.kind == "vth" || info.kind == "beta");
    EXPECT_TRUE(info.areaScaled);
  }
  const std::string report = formatPseudoNoiseReport(sys);
  EXPECT_NE(report.find("M2.dvt"), std::string::npos);
}

TEST(PseudoNoiseReport, IdsSigmaCalibration) {
  auto kit = ProcessKit::cmos130();
  // Paper anchor: 8.32u/0.13u at VGS=1.0 (veff ~ 0.65) -> 3sigma(IDS) of
  // order 10-15%.
  const Real s3 = 3.0 * relativeIdsSigma(*kit.nmos, 8.32e-6, 0.13e-6, 0.65);
  EXPECT_GT(s3, 0.05);
  EXPECT_LT(s3, 0.20);
}

// ------------------------------------------------------ gaussian mixture

TEST(GaussianMixture, MomentsOfKnownMixture) {
  MixtureDistribution d;
  d.components = {{0.5, -1.0, 0.2}, {0.5, 1.0, 0.2}};
  EXPECT_NEAR(d.mean(), 0.0, 1e-12);
  EXPECT_NEAR(d.variance(), 1.0 + 0.04, 1e-12);
  EXPECT_NEAR(d.thirdCentralMoment(), 0.0, 1e-12);  // symmetric
  // Asymmetric mixture has nonzero skew.
  d.components = {{0.8, 0.0, 0.1}, {0.2, 2.0, 0.1}};
  EXPECT_GT(d.thirdCentralMoment(), 0.0);
  EXPECT_GT(d.normalizedSkewness(), 0.0);
  // PDF integrates to ~1.
  Real integral = 0.0;
  for (Real x = -2.0; x < 4.0; x += 1e-3) integral += d.pdf(x) * 1e-3;
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(GaussianMixture, LinearCircuitReproducesMcOfBimodalParameter) {
  // R1's mismatch is bimodal (two lots). The mixture analysis projects each
  // lot through its own linear model; MC with matching draws must agree.
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<ISource>("I1", kGround, a, SourceWave::dc(1e-3), nl);
  auto& r1 = nl.add<Resistor>("R1", a, kGround, 1e3, nl, 10.0);
  nl.add<Resistor>("R2", a, kGround, 1e3, nl, 5.0);
  MnaSystem sys(nl);
  const int outIdx = nl.nodeIndex(a);

  const std::vector<MixtureComponent> lots = {{0.5, -20.0, 4.0},
                                              {0.5, +20.0, 4.0}};
  const MixtureDistribution dist = gaussianMixtureAnalysis(
      r1, 0, lots, [&]() -> std::pair<Real, VariationResult> {
        const VariationResult v = dcMatchAnalysis(sys, outIdx);
        return {solveDc(sys).x[outIdx], v};
      });

  // Monte-Carlo with the same bimodal draw.
  McOptions mo;
  mo.samples = 4000;
  Rng lotRng(99);
  MomentAccumulator acc;
  for (size_t k = 0; k < mo.samples; ++k) {
    Rng rng = Rng::forSample(7, k);
    const auto& lot = lots[rng.uniform() < 0.5 ? 0 : 1];
    r1.setMismatchDelta(0, rng.gaussian(lot.mean, lot.sigma));
    // R2 keeps its Gaussian draw.
    auto* r2 = dynamic_cast<Resistor*>(nl.find("R2"));
    r2->setMismatchDelta(0, rng.gaussian(0.0, 5.0));
    acc.add(solveDc(sys).x[outIdx]);
  }
  nl.clearMismatch();
  EXPECT_NEAR(dist.mean(), acc.mean(), 3e-3);
  EXPECT_NEAR(dist.sigma(), acc.stddev(), 0.05 * acc.stddev());
}

}  // namespace
}  // namespace psmn
