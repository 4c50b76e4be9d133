// Robustness tests: deterministic fault injection through the solver
// stack, structured FailureDiagnostics on thrown errors, pseudo-arclength
// DC continuation across folds, and sweep-level retry escalation with
// bit-identical results for every jobs count.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/bjt.hpp"
#include "circuit/controlled.hpp"
#include "circuit/diode.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stdcell.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "rf/pss.hpp"
#include "runtime/scenario_sweep.hpp"
#include "util/fault_injection.hpp"

namespace psmn {
namespace {

// ------------------------------------------------- fault-injection registry

TEST(FaultInjection, ScopeFiresOnExactHitWindow) {
  FaultPlan plan;
  plan.arm("test.site", /*firstHit=*/1, /*count=*/2);
  FaultScope scope(plan);
  // Hits 0..3: the armed window is [1, 3).
  EXPECT_FALSE(faultShouldFire("test.site"));
  EXPECT_TRUE(faultShouldFire("test.site"));
  EXPECT_TRUE(faultShouldFire("test.site"));
  EXPECT_FALSE(faultShouldFire("test.site"));
  EXPECT_FALSE(faultShouldFire("other.site"));
  EXPECT_EQ(scope.hits("test.site"), 4);
  EXPECT_EQ(scope.fired("test.site"), 2);
  EXPECT_EQ(scope.firedTotal(), 2);
  EXPECT_EQ(lastFiredFaultSite(), "test.site");
  clearLastFiredFaultSite();
  EXPECT_TRUE(lastFiredFaultSite().empty());
}

TEST(FaultInjection, DisarmedProbeNeverFires) {
  EXPECT_FALSE(faultShouldFire("dense_lu.factor"));
  EXPECT_FALSE(faultShouldFire("mna.eval"));
}

// --------------------------------------------- structured solver post-mortems

TEST(FaultInjection, DcLadderExhaustionCarriesDiagnostics) {
  // Suppress every DC Newton acceptance: the plain solve, both ladders,
  // and the arclength anchor all stagnate, so solveDc must throw a
  // ConvergenceError whose payload names the injected site.
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(3.0), nl);
  nl.add<Resistor>("R1", top, mid, 2e3, nl);
  nl.add<Resistor>("R2", mid, kGround, 1e3, nl);
  MnaSystem sys(nl);

  FaultPlan plan;
  plan.arm("dc.newton.converge", 0, -1);  // every acceptance, forever
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
    // describe() renders the payload for logs; it must mention the site,
    // and the error message carries it.
    EXPECT_NE(d->describe().find("dc.newton.converge"), std::string::npos);
    EXPECT_NE(std::string(err.what()).find(d->describe()), std::string::npos);
  }
  EXPECT_GT(scope.firedTotal(), 0);
}

TEST(FaultInjection, TransientNanSurfacesAsNumericalError) {
  // Poison the first residual evaluation of the stepping kernel: the
  // non-finite early-out must classify the failure as numerical (NaN
  // escape), not as Newton stagnation, and stamp the failure time.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add<VSource>("V1", in, kGround, SourceWave::dc(1.0), nl);
  nl.add<Resistor>("R1", in, out, 1e3, nl);
  nl.add<Capacitor>("C1", out, kGround, 1e-9, nl);
  MnaSystem sys(nl);

  TranOptions opt;
  const RealVector uic(sys.size(), 0.0);  // skip the DC solve (UIC)
  opt.initialState = &uic;

  FaultPlan plan;
  plan.arm("mna.eval", 0, 1);
  FaultScope scope(plan);
  try {
    runTransient(sys, 0.0, 1e-6, 1e-8, opt);
    FAIL() << "runTransient should have thrown";
  } catch (const NumericalError& err) {
    const FailureDiagnostics* d = err.diagnostics();
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->analysis, "transient");
    EXPECT_NE(d->stage.find("non-finite"), std::string::npos);
    EXPECT_TRUE(d->hasTime);
    EXPECT_EQ(d->injectedFault, "mna.eval");
  }
  EXPECT_EQ(scope.fired("mna.eval"), 1);
}

TEST(SolverDiagnostics, TransientStagnationRanksTheLastResidual) {
  // One Newton iteration cannot settle a step from the kicked ring, so the
  // step stalls. Its post-mortem reports the last residual norm, and the
  // suspects rank that residual, not the Newton step solved from it. With
  // BE from q = q(x) and h a power of two, the residual at the predictor
  // x is exactly f(x, t + h).
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const RingOscillatorCircuit osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  RealVector x = solveDc(sys).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    x[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.2 : -0.2);
  }
  RealVector q, qd(sys.size(), 0.0);
  sys.evalDense(x, 0.0, nullptr, &q, nullptr, nullptr);
  const Real h = std::ldexp(1.0, -38);  // ~3.6 ps
  RealVector f;
  sys.evalDense(x, h, &f, nullptr, nullptr, nullptr);

  TranOptions opt;
  opt.method = IntegrationMethod::kBackwardEuler;
  opt.maxNewton = 1;
  TransientWorkspace ws;
  RealVector xStep = x;
  ASSERT_FALSE(integrateStep(sys, opt.method, true, 0.0, h, xStep, q, qd,
                             nullptr, opt, ws));
  const FailureDiagnostics& d = ws.lastFailure;
  EXPECT_EQ(d.analysis, "transient");
  EXPECT_EQ(d.stage, "tran-newton/stagnation");
  EXPECT_EQ(d.iteration, 1);
  EXPECT_GE(d.residual, 0.0);
  EXPECT_TRUE(d.hasTime);
  EXPECT_EQ(d.time, h);
  EXPECT_FALSE(d.suspectNodes.empty());
  EXPECT_EQ(d.suspectNodes, sys.suspectUnknowns(f));
}

TEST(SolverDiagnostics, AutonomousShootingStagnationCarriesDiagnostics) {
  // One shooting iteration from the paper ring's warm state does not close
  // the orbit to 1e-9, so solvePssAutonomous throws, with the post-mortem
  // of the iteration it ran: the budget spent and the orbit residual.
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const RingOscillatorCircuit osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  const RingWarmup warm = warmupRingOscillator(sys, osc);
  PssOptions opt;
  opt.maxShootingIterations = 1;
  try {
    solvePssAutonomous(sys, warm.periodEstimate, warm.phaseIndex, warm.state,
                       opt);
    FAIL() << "solvePssAutonomous should have thrown";
  } catch (const ConvergenceError& err) {
    const FailureDiagnostics* d = err.diagnostics();
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->analysis, "pss");
    EXPECT_EQ(d->stage, "shooting/stagnation");
    EXPECT_EQ(d->iteration, 1);
    EXPECT_TRUE(std::isfinite(d->residual));
    EXPECT_GE(d->residual, opt.shootingTol);
    EXPECT_FALSE(d->suspectNodes.empty());
    EXPECT_NE(std::string(err.what()).find(d->describe()), std::string::npos);
  }
}

// ----------------------------------------------- arclength DC continuation

/// Fold testbench: a node with net negative small-signal conductance
/// (Vccs, -10 mS against a 1 kOhm feed) clamped by a diode on each side.
/// The solution curve in the source-ramp parameter lambda is S-shaped with
/// folds near lambda = +/-0.85, and the only lambda = 1 solution sits on
/// the far branch (v(a) ~ +0.6 V) — reachable from the lambda = 0 anchor
/// only by tracing around the lower fold, which is exactly what defeats
/// monotone source ramping.
NodeId buildFoldDeck(Netlist& nl) {
  const NodeId s = nl.node("s");
  const NodeId a = nl.node("a");
  nl.add<VSource>("V1", s, kGround, SourceWave::dc(5.0), nl);
  nl.add<Resistor>("R1", s, a, 1e3, nl);
  nl.add<Vccs>("Gneg", a, kGround, a, kGround, -1e-2, nl);
  DiodeModel dm;
  dm.is = 1e-12;
  nl.add<Diode>("Dp", a, kGround, dm, nl);
  nl.add<Diode>("Dn", kGround, a, dm, nl);
  return a;
}

TEST(DcArclength, TraversesFoldWithTwoSidedTrace) {
  Netlist nl;
  const NodeId a = buildFoldDeck(nl);
  MnaSystem sys(nl);

  DcOptions opt;
  NewtonWorkspace ws;
  RealVector x;
  int steps = 0;
  ASSERT_TRUE(solveDcArclength(sys, x, opt, ws, &steps));
  EXPECT_GT(steps, 0);
  // The lambda = 1 solution lies on the diode-clamped upper branch.
  EXPECT_GT(x[nl.nodeIndex(a)], 0.5);
  EXPECT_LT(x[nl.nodeIndex(a)], 0.7);
  RealVector f;
  sys.evalDense(x, 0.0, &f, nullptr, nullptr, nullptr, {});
  for (Real v : f) EXPECT_LT(std::fabs(v), 1e-8);
}

TEST(DcArclength, SolveDcEscalatesToArclengthOnFoldDeck) {
  // gminSteps = 0: the gmin shunt happens to linearize this single-node
  // fold (at full drive the shunted curve is monotone), masking the
  // source-ramp fold the deck models; disabling it isolates the class of
  // circuits whose every ramped ladder stalls on a vanished branch.
  Netlist nl;
  const NodeId a = buildFoldDeck(nl);
  MnaSystem sys(nl);

  DcOptions opt;
  opt.gminSteps = 0;
  const DcResult dc = solveDc(sys, opt);
  EXPECT_TRUE(dc.usedArclength);
  EXPECT_GT(dc.arclengthSteps, 0);
  EXPECT_GT(dc.x[nl.nodeIndex(a)], 0.5);
  RealVector f;
  sys.evalDense(dc.x, 0.0, &f, nullptr, nullptr, nullptr, {});
  for (Real v : f) EXPECT_LT(std::fabs(v), 1e-8);
}

TEST(DcArclength, DefaultOptionsStillSolveFoldDeck) {
  // With the full escalation chain enabled the deck must solve regardless
  // of which strategy lands it.
  Netlist nl;
  const NodeId a = buildFoldDeck(nl);
  MnaSystem sys(nl);
  const DcResult dc = solveDc(sys);
  EXPECT_GT(dc.x[nl.nodeIndex(a)], 0.5);
  RealVector f;
  sys.evalDense(dc.x, 0.0, &f, nullptr, nullptr, nullptr, {});
  for (Real v : f) EXPECT_LT(std::fabs(v), 1e-8);
}

// ------------------------------------------------- sweep retry + recovery

std::unique_ptr<Netlist> makeRcNetlist() {
  auto nl = std::make_unique<Netlist>();
  const NodeId in = nl->node("in");
  const NodeId out = nl->node("out");
  nl->add<VSource>("V1", in, kGround, SourceWave::dc(1.0), *nl);
  nl->add<Resistor>("R1", in, out, 1e3, *nl);
  nl->add<Capacitor>("C1", out, kGround, 1e-9, *nl);
  return nl;
}

/// The armed-sweep fixture: six RC transient scenarios, two of which are
/// injected with failures the retry policy must recover, one with an
/// unrecoverable (forever-armed) failure, and one whose injected LU
/// breakdown the DC ladders absorb without any sweep-level retry.
std::vector<SweepScenario> armedScenarios(const RealVector& uic) {
  std::vector<SweepScenario> scenarios;
  for (int k = 0; k < 6; ++k) {
    SweepScenario sc;
    sc.name = "sc" + std::to_string(k);
    sc.make = makeRcNetlist;
    sc.outNode = "out";
    sc.t1 = 1e-6;
    sc.dt = 1e-8;
    sc.retry.maxRetries = 2;
    scenarios.push_back(std::move(sc));
  }
  // sc1: NaN poisoned into the first transient residual evaluation (UIC
  // skips the DC solve, so the single armed hit lands in the stepping
  // kernel). Attempt 1 dies with NumericalError; attempt 2 is clean.
  scenarios[1].tran.initialState = &uic;
  scenarios[1].faults.arm("mna.eval", 0, 1);
  // sc2: suppress transient Newton acceptances for exactly the first
  // attempt's budget. Attempt 1 exhausts maxNewton and throws; the retry
  // (doubled budget) outlives the few leftover fires and converges.
  scenarios[2].faults.arm("tran.newton.converge", 0,
                          scenarios[2].tran.maxNewton);
  // sc3: one dense-LU pivot breakdown in the DC init. The gmin ladder
  // absorbs it inside solveDc — no sweep-level retry should be consumed.
  scenarios[3].faults.arm("dense_lu.factor", 0, 1);
  // sc4: unrecoverable — every residual evaluation is poisoned.
  scenarios[4].tran.initialState = &uic;
  scenarios[4].faults.arm("mna.eval", 0, -1);
  return scenarios;
}

void checkArmedSweep(const std::vector<SweepResult>& results) {
  ASSERT_EQ(results.size(), 6u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].name, "sc" + std::to_string(i));
  }
  // Clean scenarios: first attempt, no recovery.
  for (size_t i : {size_t{0}, size_t{5}}) {
    EXPECT_TRUE(results[i].ok);
    EXPECT_EQ(results[i].attempts, 1);
    EXPECT_FALSE(results[i].recovered);
  }
  // sc1 / sc2: recovered on the first retry, diagnostics of the failed
  // attempt retained.
  for (size_t i : {size_t{1}, size_t{2}}) {
    EXPECT_TRUE(results[i].ok) << results[i].error;
    EXPECT_EQ(results[i].attempts, 2);
    EXPECT_TRUE(results[i].recovered);
    EXPECT_TRUE(results[i].hasDiagnostics);
  }
  EXPECT_EQ(results[1].diagnostics.injectedFault, "mna.eval");
  EXPECT_EQ(results[2].diagnostics.injectedFault, "tran.newton.converge");
  // sc3: the DC ladders recovered inside the analysis; the sweep never saw
  // a failure.
  EXPECT_TRUE(results[3].ok);
  EXPECT_EQ(results[3].attempts, 1);
  EXPECT_FALSE(results[3].recovered);
  // sc4: all attempts exhausted; failure reported as data.
  EXPECT_FALSE(results[4].ok);
  EXPECT_EQ(results[4].attempts, 3);
  EXPECT_FALSE(results[4].recovered);
  EXPECT_TRUE(results[4].hasDiagnostics);
  EXPECT_EQ(results[4].diagnostics.injectedFault, "mna.eval");
  EXPECT_FALSE(results[4].error.empty());
}

TEST(SweepRetry, RecoversInjectedFaultsBitIdenticallyAcrossJobs) {
  RealVector uic(4, 0.0);  // in, out, V1 branch (sized by the first make)
  {
    const auto nl = makeRcNetlist();
    nl->finalize();
    uic.assign(MnaSystem(*nl).size(), 0.0);
  }
  const std::vector<SweepScenario> scenarios = armedScenarios(uic);

  std::vector<std::vector<SweepResult>> runs;
  for (size_t jobs : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(jobs);
    runs.push_back(runScenarioSweep(scenarios, pool));
    checkArmedSweep(runs.back());
  }
  // Bit-identical across jobs counts: injection and retry are pure
  // functions of the scenario, never of scheduling.
  for (size_t r = 1; r < runs.size(); ++r) {
    for (size_t i = 0; i < runs[0].size(); ++i) {
      const SweepResult& ref = runs[0][i];
      const SweepResult& got = runs[r][i];
      EXPECT_EQ(got.ok, ref.ok);
      EXPECT_EQ(got.attempts, ref.attempts);
      EXPECT_EQ(got.recovered, ref.recovered);
      EXPECT_EQ(got.error, ref.error);
      ASSERT_EQ(got.times.size(), ref.times.size());
      ASSERT_EQ(got.waveform.size(), ref.waveform.size());
      for (size_t k = 0; k < ref.waveform.size(); ++k) {
        EXPECT_EQ(got.times[k], ref.times[k]);
        EXPECT_EQ(got.waveform[k], ref.waveform[k]);  // bitwise
      }
      ASSERT_EQ(got.finalState.size(), ref.finalState.size());
      for (size_t k = 0; k < ref.finalState.size(); ++k) {
        EXPECT_EQ(got.finalState[k], ref.finalState[k]);
      }
    }
  }
}

std::unique_ptr<Netlist> makeBjtCeAmp() {
  auto nl = std::make_unique<Netlist>();
  auto model = std::make_shared<BjtModel>();
  const NodeId vcc = nl->node("vcc");
  const NodeId b = nl->node("b");
  const NodeId out = nl->node("out");
  nl->add<VSource>("VCC", vcc, kGround, SourceWave::dc(5.0), *nl);
  nl->add<VSource>("VB", b, kGround,
                   SourceWave::pulse(0.65, 0.7, 100e-9, 10e-9, 10e-9, 1.0,
                                     2.0),
                   *nl);
  nl->add<Resistor>("RC", vcc, out, 1e3, *nl);
  nl->add<Bjt>("Q1", out, b, kGround, std::move(model), 1.0, *nl);
  nl->add<Capacitor>("CL", out, kGround, 1e-12, *nl);
  return nl;
}

TEST(SweepRetry, BjtDeckRecoversInjectedNewtonStall) {
  // Exponential-device flavour of the retry escalation: a pulsed
  // common-emitter BJT stage whose first attempt has every transient
  // Newton acceptance suppressed. The attempt exhausts its budget and
  // throws; the sweep retry (tightened dt, doubled budget) outlives the
  // armed window and recovers, keeping the failed attempt's post-mortem.
  SweepScenario sc;
  sc.name = "bjt-ce";
  sc.make = makeBjtCeAmp;
  sc.outNode = "out";
  sc.t1 = 300e-9;
  sc.dt = 1e-9;
  sc.retry.maxRetries = 2;
  sc.faults.arm("tran.newton.converge", 0, sc.tran.maxNewton);

  ThreadPool pool(2);
  const std::vector<SweepScenario> scenarios{sc};
  const auto results = runScenarioSweep(scenarios, pool);
  ASSERT_EQ(results.size(), 1u);
  const SweepResult& r = results[0];
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.attempts, 2);
  EXPECT_TRUE(r.recovered);
  ASSERT_TRUE(r.hasDiagnostics);
  EXPECT_EQ(r.diagnostics.injectedFault, "tran.newton.converge");
  // The recovered waveform is the real amplifier response: the output
  // starts at the RC-loaded bias point and drops when the input steps.
  ASSERT_FALSE(r.waveform.empty());
  EXPECT_GT(r.waveform.front(), 4.0);
  EXPECT_LT(r.waveform.back(), r.waveform.front() - 0.2);
}

}  // namespace
}  // namespace psmn
