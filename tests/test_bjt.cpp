// End-to-end tests of the BJT op-amp benchmark deck (circuit/bjt_opamp):
// DC bias with per-transistor operating-region checks, FD verification of
// the full deck at its true operating point, step-response transient,
// transient-sensitivity sigma cross-validated against a seeded 1000-sample
// Monte Carlo on the output node, scenario-sweep determinism, and the DC
// escalation ladder (arclength continuation, structured diagnostics) on
// BJT-clamped decks.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/bjt_opamp.hpp"
#include "circuit/controlled.hpp"
#include "circuit/diode.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "core/monte_carlo.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"
#include "fd_check.hpp"
#include "runtime/scenario_sweep.hpp"
#include "util/fault_injection.hpp"

namespace psmn {
namespace {

std::unique_ptr<Netlist> makeFollower(Real mismatchScale = 1.0) {
  auto nl = std::make_unique<Netlist>();
  buildBjtFollower(*nl, BjtKit::bipolar5(mismatchScale));
  return nl;
}

TEST(BjtOpAmp, BiasesIntoActiveRegionAndTracksInput) {
  Netlist nl;
  const BjtFollowerTestbench tb = buildBjtFollower(nl, BjtKit::bipolar5());
  const BjtOpAmpCircuit& amp = tb.amp;
  ASSERT_EQ(amp.bjts.size(), 20u);
  MnaSystem sys(nl);

  const DcResult dc = solveDc(sys);
  // Follower: the output sits at the input (0 V at t=0) plus the
  // amplifier's systematic offset — a few mV for this topology.
  EXPECT_LT(std::fabs(dc.x[nl.nodeIndex(tb.out)]), 0.05);

  const Stamper s(dc.x, 0.0, sys.size());
  // Every gain-path transistor must be forward active — not saturated,
  // not cut off — and carrying on the order of the 1 mA master current.
  for (const char* name :
       {"QB1", "QB2", "QS1", "QS2", "QE1", "QE2", "QD1", "QD2", "QT", "QM1",
        "QM2", "QG", "QL", "QA1", "QA2", "QO1", "QO2"}) {
    const Bjt* q = amp.bjt(name);
    ASSERT_NE(q, nullptr) << name;
    const BjtOpPoint op = q->opPoint(s);
    EXPECT_TRUE(op.forwardActive) << name << " ic=" << op.ic;
    EXPECT_FALSE(op.saturated) << name;
    EXPECT_GT(std::fabs(op.ic), 20e-6) << name;
    EXPECT_LT(std::fabs(op.ic), 5e-3) << name;
  }
  // The diff pair splits the tail evenly (same-sign collector currents
  // within a few percent of each other).
  const Real icd1 = amp.bjt("QD1")->opPoint(s).ic;
  const Real icd2 = amp.bjt("QD2")->opPoint(s).ic;
  EXPECT_NEAR(icd1, icd2, 0.1 * std::fabs(icd1));
  // Short-circuit protection stays off at the quiescent sense drop.
  for (const char* name : {"QP1", "QP2"}) {
    const BjtOpPoint op = amp.bjt(name)->opPoint(s);
    EXPECT_LT(std::fabs(op.ic), 20e-6) << name;
  }
}

TEST(BjtOpAmp, FdCleanAtOperatingPoint) {
  // The universal FD harness normally sweeps random bias points; here it
  // runs at the amplifier's true DC solution — the linearization the
  // sensitivity and Monte-Carlo cross-validation below actually use.
  Netlist nl;
  buildBjtFollower(nl, BjtKit::bipolar5());
  MnaSystem sys(nl);
  const DcResult dc = solveDc(sys);

  fdcheck::FdOptions opt;
  // Deck-level check at a solved point: FD differences are limited by
  // cancellation of the mA-scale device currents, so sub-fA derivative
  // entries (the OFF protection transistors) need the absolute floor.
  opt.absTol = 1e-14;
  std::vector<std::string> failures;
  fdcheck::checkJacobiansAt(sys, dc.x, opt, failures);
  fdcheck::checkMismatchDerivativesAt(sys, dc.x, opt, failures);
  for (const auto& msg : failures) ADD_FAILURE() << msg;
  EXPECT_TRUE(failures.empty());
}

TEST(BjtOpAmp, FollowerTracksStepTransient) {
  Netlist nl;
  BjtFollowerOptions fopt;
  const BjtFollowerTestbench tb = buildBjtFollower(nl, BjtKit::bipolar5(),
                                                   fopt);
  MnaSystem sys(nl);
  const int outIdx = nl.nodeIndex(tb.out);

  const TransientResult tr = runTransient(sys, 0.0, 600e-9, 2e-9);
  const RealVector wave = tr.waveform(outIdx);
  ASSERT_GT(wave.size(), 10u);
  // Before the step the output holds the input level (plus offset)...
  size_t pre = 0;
  while (pre + 1 < tr.times.size() && tr.times[pre + 1] < fopt.tStep) ++pre;
  EXPECT_LT(std::fabs(wave[pre]), 0.03);
  // ...and after it the follower settles onto the step value.
  EXPECT_NEAR(wave.back(), fopt.vStep, 0.03);
  // Compensated loop: bounded overshoot, no rail excursions.
  Real peak = 0.0;
  for (Real v : wave) peak = std::max(peak, v);
  EXPECT_LT(peak, fopt.vStep + 0.1);
}

TEST(BjtOpAmp, SensitivitySigmaMatchesMonteCarlo) {
  // The acceptance cross-check: sigma(out) from the transient-sensitivity
  // flow (first-order in all 44 mismatch parameters: 2 per BJT plus the
  // degeneration-resistor sigmas) against a seeded 1000-sample Monte
  // Carlo, within 5% at settled probe points. For a unity-gain follower
  // the settled sigma IS the amplifier's input-referred offset sigma.
  Netlist nl;
  buildBjtFollower(nl, BjtKit::bipolar5());
  MnaSystem sys(nl);
  const int outIdx = nl.nodeIndex(*nl.findNode("out"));

  const Real t1 = 600e-9, dt = 2e-9;
  TranOptions topt;
  topt.method = IntegrationMethod::kBackwardEuler;

  const auto sources = sys.collectSources();
  ASSERT_EQ(sources.size(), 44u);
  const TransientSensitivityResult sens =
      runTransientSensitivity(sys, 0.0, t1, dt, sources, topt);

  // Settled probes: one before the step, one after settling, one at the
  // end of the window.
  auto probeAt = [&](Real t) {
    size_t k = 0;
    while (k + 1 < sens.times.size() && sens.times[k + 1] <= t) ++k;
    return k;
  };
  const std::vector<size_t> probes{probeAt(80e-9), probeAt(400e-9),
                                   sens.times.size() - 1};
  RealVector predicted;
  for (size_t k : probes) {
    Real var = 0.0;
    for (size_t si = 0; si < sources.size(); ++si) {
      const Real d = sens.sens[si][k][outIdx] * sources[si].sigma;
      var += d * d;
    }
    predicted.push_back(std::sqrt(var));
    EXPECT_GT(predicted.back(), 1e-4);  // the offset sigma is real (~mV)
  }

  McOptions mopt;
  mopt.samples = 1000;
  mopt.seed = 20070604;  // fixed: the cross-check must be reproducible
  mopt.jobs = 0;         // parallel samples; bit-identical per contract
  MonteCarloEngine mc(sys, mopt);
  mc.setNetlistFactory([] { return makeFollower(); });
  std::vector<std::string> names;
  for (size_t k : probes) names.push_back("v" + std::to_string(k));
  const McResult res = mc.run(names, [&](const MnaSystem& s) {
    const TransientResult tr = runTransient(s, 0.0, t1, dt, topt);
    RealVector out;
    for (size_t k : probes) out.push_back(tr.states.at(k)[outIdx]);
    return out;
  });
  ASSERT_EQ(res.failedSamples, 0u);

  const TransientResult nominal = runTransient(sys, 0.0, t1, dt, topt);
  ASSERT_EQ(nominal.times.size(), sens.times.size());
  for (size_t j = 0; j < probes.size(); ++j) {
    EXPECT_NEAR(res.meanOf(j), nominal.states.at(probes[j])[outIdx], 1e-3)
        << names[j];
    // The 5% acceptance window (MC sample error at N=1000 is ~2.2%).
    EXPECT_NEAR(res.sigma(j), predicted[j], 0.05 * predicted[j]) << names[j];
  }
}

TEST(BjtOpAmp, ScenarioSweepBitIdenticalAcrossJobs) {
  // Mismatch-severity sweep over the follower deck (the production loop
  // around the paper's single sensitivity solve): results must not depend
  // on the pool's job count.
  const Real t1 = 300e-9, dt = 2e-9;
  const std::vector<Real> scales{0.5, 1.0, 2.0};
  std::vector<SweepScenario> scenarios;
  for (Real scale : scales) {
    SweepScenario sc;
    sc.name = "scale" + std::to_string(scale);
    sc.make = [scale] { return makeFollower(scale); };
    sc.outNode = "out";
    sc.t1 = t1;
    sc.dt = dt;
    sc.tran.method = IntegrationMethod::kBackwardEuler;
    scenarios.push_back(std::move(sc));
  }

  std::vector<std::vector<SweepResult>> runs;
  for (size_t jobs : {size_t{1}, size_t{4}}) {
    ThreadPool pool(jobs);
    runs.push_back(runScenarioSweep(scenarios, pool));
  }
  for (const auto& results : runs) {
    ASSERT_EQ(results.size(), scenarios.size());
    for (const SweepResult& r : results) {
      EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
      ASSERT_FALSE(r.waveform.empty());
    }
  }
  for (size_t i = 0; i < runs[0].size(); ++i) {
    const SweepResult& ref = runs[0][i];
    const SweepResult& got = runs[1][i];
    ASSERT_EQ(got.waveform.size(), ref.waveform.size());
    for (size_t k = 0; k < ref.waveform.size(); ++k) {
      EXPECT_EQ(got.waveform[k], ref.waveform[k]);  // bitwise
    }
  }

  // Sigma scales linearly with the severity multiplier (first-order
  // mismatch): the scale-2 deck shows 4x the scale-0.5 settled sigma.
  const auto settledSigma = [&](Real scale) {
    auto nl = makeFollower(scale);
    nl->finalize();
    MnaSystem sys(*nl);
    const int out = nl->nodeIndex("out");
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    const auto sources = sys.collectSources();
    const TransientSensitivityResult sens =
        runTransientSensitivity(sys, 0.0, t1, dt, sources, topt);
    Real var = 0.0;
    for (size_t i = 0; i < sources.size(); ++i) {
      const Real d = sens.sens[i].back()[out] * sources[i].sigma;
      var += d * d;
    }
    return std::sqrt(var);
  };
  const Real s05 = settledSigma(0.5);
  const Real s20 = settledSigma(2.0);
  EXPECT_NEAR(s20, 4.0 * s05, 0.05 * s20);
}

// --------------------------------------------- DC escalation on BJT decks

/// BJT version of the robustness suite's fold deck: a negative-conductance
/// node clamped by diode-connected BJTs instead of diodes. The solution
/// curve in the source-ramp parameter is S-shaped; the lambda = 1 solution
/// sits past a fold, reachable only by the arclength continuation.
NodeId buildBjtFoldDeck(Netlist& nl) {
  const NodeId s = nl.node("s");
  const NodeId a = nl.node("a");
  nl.add<VSource>("V1", s, kGround, SourceWave::dc(5.0), nl);
  nl.add<Resistor>("R1", s, a, 1e3, nl);
  nl.add<Vccs>("Gneg", a, kGround, a, kGround, -1e-2, nl);
  // Power-transistor clamps: IS must be large enough that the junction
  // carries mA-scale current near 0.55 V, which removes the would-be
  // lower-branch solution (a small-signal IS would leave a second
  // lambda = 1 equilibrium the plain ladder happily lands on).
  auto clamp = std::make_shared<BjtModel>();
  clamp->is = 1e-12;
  nl.add<Bjt>("Qp", a, a, kGround, clamp, 1.0, nl);      // diode, clamps up
  nl.add<Bjt>("Qn", kGround, kGround, a, clamp, 1.0, nl);  // clamps down
  return a;
}

TEST(BjtDcLadder, EscalatesToArclengthOnBjtFoldDeck) {
  Netlist nl;
  const NodeId a = buildBjtFoldDeck(nl);
  MnaSystem sys(nl);

  DcOptions opt;
  opt.gminSteps = 0;  // isolate the fold (see test_robustness fold deck)
  const DcResult dc = solveDc(sys, opt);
  EXPECT_TRUE(dc.usedArclength);
  EXPECT_GT(dc.arclengthSteps, 0);
  // The solution lands on the BJT-clamped upper branch (~ one V_BE).
  EXPECT_GT(dc.x[nl.nodeIndex(a)], 0.5);
  EXPECT_LT(dc.x[nl.nodeIndex(a)], 0.8);
  RealVector f;
  sys.evalDense(dc.x, 0.0, &f, nullptr, nullptr, nullptr, {});
  for (Real v : f) EXPECT_LT(std::fabs(v), 1e-8);
}

TEST(BjtDcLadder, OpAmpLadderExhaustionCarriesDiagnostics) {
  // Suppress every DC Newton acceptance on the full op-amp deck: the
  // ladder runs dry and the thrown ConvergenceError must carry the
  // structured post-mortem (analysis, stage, injected site).
  Netlist nl;
  buildBjtFollower(nl, BjtKit::bipolar5());
  MnaSystem sys(nl);

  FaultPlan plan;
  plan.arm("dc.newton.converge", 0, -1);
  FaultScope scope(plan);
  try {
    solveDc(sys);
    FAIL() << "solveDc should have thrown";
  } catch (const ConvergenceError& err) {
    const FailureDiagnostics* d = err.diagnostics();
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->analysis, "dc");
    EXPECT_FALSE(d->stage.empty());
    EXPECT_EQ(d->injectedFault, "dc.newton.converge");
  }
  EXPECT_GT(scope.firedTotal(), 0);
}

}  // namespace
}  // namespace psmn
