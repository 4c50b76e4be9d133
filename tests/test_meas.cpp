// Measurement-layer tests plus end-to-end checks of the sparse assembly
// path and the correlated-source PNOISE entry point.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "core/correlated_mismatch.hpp"
#include "engine/dc.hpp"
#include "meas/measure.hpp"
#include "numeric/dense_lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "rf/pnoise.hpp"
#include "rf/pss.hpp"

namespace psmn {
namespace {

Waveform sineWave(Real freq, Real amp, Real offset, Real tEnd, size_t n) {
  Waveform w;
  for (size_t k = 0; k <= n; ++k) {
    const Real t = tEnd * static_cast<Real>(k) / static_cast<Real>(n);
    w.times.push_back(t);
    w.values.push_back(offset +
                       amp * std::sin(2 * std::numbers::pi * freq * t));
  }
  return w;
}

TEST(Measure, CrossingsOfSine) {
  const Waveform w = sineWave(1e6, 1.0, 0.0, 3e-6, 3000);
  const auto rises = w.crossings(0.0, +1);
  const auto falls = w.crossings(0.0, -1);
  ASSERT_EQ(rises.size(), 3u);  // t = 0+, 1u, 2u (t=0 sample is exactly 0)
  ASSERT_EQ(falls.size(), 3u);  // t = 0.5u, 1.5u, 2.5u
  EXPECT_NEAR(falls[0], 0.5e-6, 2e-9);
  EXPECT_NEAR(measurePeriod(w, 0.0, 2), 1e-6, 2e-9);
  EXPECT_NEAR(measureFrequency(w, 0.0, 2), 1e6, 5e3);
}

TEST(Measure, CrossingsInterpolateBetweenBracketingSamples) {
  // One rising and one falling bracket whose linear crossings are exact.
  Waveform rise;
  rise.times = {0.0, 1.0};
  rise.values = {0.0, 2.0};
  ASSERT_EQ(rise.crossings(1.0, +1).size(), 1u);
  EXPECT_DOUBLE_EQ(rise.crossings(1.0, +1)[0], 0.5);
  Waveform fall;
  fall.times = {2.0, 4.0};
  fall.values = {1.0, -1.0};
  ASSERT_EQ(fall.crossings(0.0, -1).size(), 1u);
  EXPECT_DOUBLE_EQ(fall.crossings(0.0, -1)[0], 3.0);
}

TEST(Measure, DelayBetweenWaveforms) {
  Waveform stim, resp;
  for (int k = 0; k <= 100; ++k) {
    const Real t = k * 1e-9;
    stim.times.push_back(t);
    resp.times.push_back(t);
    stim.values.push_back(t > 10e-9 ? 1.0 : 0.0);
    resp.values.push_back(t > 25e-9 ? 0.0 : 1.0);  // falls later
  }
  EXPECT_NEAR(measureDelay(stim, resp, 0.5, +1, -1), 15e-9, 1.1e-9);
  // Missing edge throws.
  EXPECT_THROW(measureDelay(resp, stim, 0.5, +1, -1), Error);
}

// ------------------------------------------------ sparse assembly path

TEST(SparseAssembly, SlotStampsMatchDenseOnLadder) {
  // A 60-node RC ladder: assemble G on the system's declared pattern and
  // check the sparse LU solution of G x = b against the dense path.
  Netlist nl;
  NodeId prev = nl.node("in");
  nl.add<VSource>("V1", prev, kGround, SourceWave::dc(1.0), nl);
  for (int k = 0; k < 60; ++k) {
    const NodeId next = nl.node("n" + std::to_string(k));
    nl.add<Resistor>("R" + std::to_string(k), prev, next, 1e3, nl);
    nl.add<Capacitor>("C" + std::to_string(k), next, kGround, 1e-12, nl);
    prev = next;
  }
  nl.add<Resistor>("Rload", prev, kGround, 1e3, nl);
  MnaSystem sys(nl);
  const size_t n = sys.size();
  const RealVector x(n, 0.0);

  // Dense path.
  RealMatrix gDense;
  RealVector f;
  sys.evalDense(x, 0.0, &f, nullptr, &gDense, nullptr, {});

  // Sparse path: the same slot-stamping loop into the CSC values.
  RealSparse gSparse;
  RealVector f2;
  sys.evalSparse(x, 0.0, &f2, nullptr, &gSparse, nullptr, {});

  EXPECT_EQ(gSparse.toDense(), gDense);
  EXPECT_EQ(f2, f);
  // Sparsity is real: the ladder G has ~4 entries per row.
  EXPECT_LT(gSparse.nonZeros(), n * 6);

  // Solve the DC system both ways.
  RealVector rhs(n, 0.0);
  for (size_t i = 0; i < n; ++i) rhs[i] = -f[i];
  const RealVector xs = SparseLU<Real>(gSparse).solve(rhs);
  const RealVector xd = luSolve(gDense, std::span<const Real>(rhs));
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

// --------------------------------- correlated sources through PNOISE

TEST(PnoiseCorrelated, CompositeSourcesReduceDividerVariance) {
  // Same physics as the DC test, but through the full PSS+PNOISE pipeline:
  // fully correlated resistor mismatch cancels in the divider ratio.
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(2.0), nl);
  auto& r1 = nl.add<Resistor>("R1", top, mid, 1e3, nl, 10.0);
  auto& r2 = nl.add<Resistor>("R2", mid, kGround, 1e3, nl, 10.0);
  nl.add<Capacitor>("C1", mid, kGround, 1e-12, nl);
  MnaSystem sys(nl);

  PssOptions popt;
  popt.stepsPerPeriod = 100;
  const PssResult pss = solvePssDriven(sys, 1e-6, popt);

  // Independent: sigma = sqrt(2)*5mV.
  PnoiseAnalysis indep(sys, pss, PnoiseOptions{});
  EXPECT_NEAR(std::sqrt(indep.sideband(nl.nodeIndex(mid), 0).totalPsd),
              std::sqrt(2.0) * 5e-3, 1e-5);

  // Fully correlated: ~0.
  CorrelatedMismatch corr;
  corr.addUniformCorrelationGroup({{&r1, 0}, {&r2, 0}}, 1.0);
  PnoiseAnalysis correlated(
      sys, pss, corr.transformSources(sys.collectSources()), {});
  EXPECT_NEAR(std::sqrt(correlated.sideband(nl.nodeIndex(mid), 0).totalPsd),
              0.0, 1e-7);
}

}  // namespace
}  // namespace psmn
