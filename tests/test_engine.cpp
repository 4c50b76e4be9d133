// Engine-level tests: DC Newton, transient integration vs. analytic
// solutions, AC, LTI noise (including the kT/C classic), DC and transient
// sensitivities (adjoint == direct == finite difference).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "circuit/diode.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stdcell.hpp"
#include "engine/dc.hpp"
#include "engine/sensitivity.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"
#include "meas/measure.hpp"

namespace psmn {
namespace {

// -------------------------------------------------------------------- DC

TEST(Dc, VoltageDivider) {
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(3.0), nl);
  nl.add<Resistor>("R1", top, mid, 2e3, nl);
  nl.add<Resistor>("R2", mid, kGround, 1e3, nl);
  MnaSystem sys(nl);
  const DcResult dc = solveDc(sys);
  EXPECT_NEAR(dc.x[nl.nodeIndex(mid)], 1.0, 1e-9);
  EXPECT_NEAR(dc.x[nl.nodeIndex(top)], 3.0, 1e-9);
  // Branch current: 1 mA out of the + terminal.
  EXPECT_NEAR(dc.x[2], -1e-3, 1e-9);
}

TEST(Dc, DiodeForwardDrop) {
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<ISource>("I1", kGround, a, SourceWave::dc(1e-3), nl);
  nl.add<Diode>("D1", a, kGround, DiodeModel{}, nl);
  MnaSystem sys(nl);
  const DcResult dc = solveDc(sys);
  const Real vt = DiodeModel{}.thermalVoltage();
  const Real expected = vt * std::log(1e-3 / 1e-14 + 1.0);
  EXPECT_NEAR(dc.x[nl.nodeIndex(a)], expected, 1e-6);
}

TEST(Dc, NmosInverterTransferPoint) {
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add<VSource>("VDD", vdd, kGround, SourceWave::dc(kit.vdd), nl);
  nl.add<VSource>("VIN", in, kGround, SourceWave::dc(0.0), nl);
  addInverter(nl, "G1", in, out, vdd, kit, 0.6e-6, 1.2e-6);
  MnaSystem sys(nl);
  const DcResult dc = solveDc(sys);
  // Input low -> output high.
  EXPECT_NEAR(dc.x[nl.nodeIndex(out)], kit.vdd, 0.01);
}

TEST(Dc, GminSteppingRecoversBistableCircuit) {
  // Cross-coupled inverters with no input: plain Newton from zero may
  // wander; the homotopies must still find a consistent solution.
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId q = nl.node("q");
  const NodeId qb = nl.node("qb");
  nl.add<VSource>("VDD", vdd, kGround, SourceWave::dc(kit.vdd), nl);
  addInverter(nl, "G1", q, qb, vdd, kit, 0.6e-6, 1.2e-6);
  addInverter(nl, "G2", qb, q, vdd, kit, 0.6e-6, 1.2e-6);
  MnaSystem sys(nl);
  const DcResult dc = solveDc(sys);
  // Any valid solution satisfies the residual.
  RealVector f;
  sys.evalDense(dc.x, 0.0, &f, nullptr, nullptr, nullptr, {});
  for (Real v : f) EXPECT_LT(std::fabs(v), 1e-8);
}

TEST(Dc, DeepInverterChainConvergesViaBacktrackingHomotopy) {
  // 256 series inverters from a zero start: the iterate escapes at one
  // specific gmin rung, which defeated the abort-on-failure ladders (the
  // ROADMAP "DC homotopy robustness" item — this exact fixture failed
  // before the ladders learned to backtrack and re-tighten the rung).
  // Deep chains are the scenario-sweep workhorse, so a mid-sweep death
  // here used to take the whole corner batch with it.
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  InverterChainOptions copt;
  copt.stages = 256;
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);
  const DcResult dc = solveDc(sys);
  // Input low at t=0, so even stages sit low and odd stages high.
  EXPECT_NEAR(dc.x[nl.nodeIndex("ch256")], 0.0, 1e-4);
  EXPECT_NEAR(dc.x[nl.nodeIndex("ch255")], kit.vdd, 1e-4);
  RealVector f;
  sys.evalDense(dc.x, 0.0, &f, nullptr, nullptr, nullptr, {});
  for (Real v : f) EXPECT_LT(std::fabs(v), 1e-8);
}

TEST(Dc, ThrowsWhenUnsolvable) {
  // Two ideal voltage sources in parallel with different values.
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<VSource>("V1", a, kGround, SourceWave::dc(1.0), nl);
  nl.add<VSource>("V2", a, kGround, SourceWave::dc(2.0), nl);
  MnaSystem sys(nl);
  EXPECT_THROW(solveDc(sys), Error);
}

// -------------------------------------------------------------- transient

class TransientMethods
    : public ::testing::TestWithParam<IntegrationMethod> {};

TEST_P(TransientMethods, RcStepResponseMatchesAnalytic) {
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add<VSource>("V1", in, kGround,
                  SourceWave::pulse(0.0, 1.0, 1e-9, 1e-12, 1e-12, 1.0, 0.0),
                  nl);
  nl.add<Resistor>("R1", in, out, 1e3, nl);
  nl.add<Capacitor>("C1", out, kGround, 1e-9, nl);  // tau = 1 us
  MnaSystem sys(nl);
  TranOptions opt;
  opt.method = GetParam();
  const TransientResult tr = runTransient(sys, 0.0, 5e-6, 5e-9, opt);
  const Waveform w = makeWaveform(tr.times, tr.states, nl.nodeIndex(out));
  const Real tau = 1e-6;
  Real maxErr = 0.0;
  for (size_t k = 0; k < w.size(); ++k) {
    const Real t = w.times[k] - 1e-9;
    const Real expected = t <= 0 ? 0.0 : 1.0 - std::exp(-t / tau);
    maxErr = std::max(maxErr, std::fabs(w.values[k] - expected));
  }
  // BE is O(h): with h/tau = 5e-3 expect ~2.5e-3; TRAP/Gear much better.
  const Real tol =
      GetParam() == IntegrationMethod::kBackwardEuler ? 5e-3 : 5e-4;
  EXPECT_LT(maxErr, tol);
}

INSTANTIATE_TEST_SUITE_P(Methods, TransientMethods,
                         ::testing::Values(IntegrationMethod::kBackwardEuler,
                                           IntegrationMethod::kTrapezoidal,
                                           IntegrationMethod::kGear2));

TEST(Transient, LcTankOscillatesAtResonance) {
  Netlist nl;
  const NodeId a = nl.node("a");
  nl.add<Capacitor>("C1", a, kGround, 1e-9, nl);
  nl.add<Inductor>("L1", a, kGround, 1e-6, nl);
  nl.add<Resistor>("Rbig", a, kGround, 1e9, nl);  // keeps DC well-posed
  MnaSystem sys(nl);
  // Start from a charged cap.
  RealVector x0(sys.size(), 0.0);
  x0[nl.nodeIndex(a)] = 1.0;
  TranOptions opt;
  opt.method = IntegrationMethod::kTrapezoidal;
  opt.initialState = &x0;
  const Real f0 = 1.0 / (2 * std::numbers::pi * std::sqrt(1e-9 * 1e-6));
  const TransientResult tr = runTransient(sys, 0.0, 6.0 / f0, 1.0 / f0 / 400,
                                          opt);
  const Waveform w = makeWaveform(tr.times, tr.states, nl.nodeIndex(a));
  EXPECT_NEAR(measureFrequency(w, 0.0, 4), f0, 0.01 * f0);
  // Trapezoidal preserves the amplitude (no numerical damping).
  Real last = 0.0;
  for (size_t k = 0; k < w.size(); ++k) last = std::max(last, w.values[k]);
  EXPECT_GT(last, 0.98);
}

TEST(Transient, BreakpointsHitPulseEdges) {
  Netlist nl;
  const NodeId in = nl.node("in");
  nl.add<VSource>("V1", in, kGround,
                  SourceWave::pulse(0.0, 1.0, 3.33e-9, 0.1e-9, 0.1e-9, 2e-9,
                                    0.0),
                  nl);
  nl.add<Resistor>("R1", in, kGround, 1e3, nl);
  MnaSystem sys(nl);
  const TransientResult tr = runTransient(sys, 0.0, 10e-9, 1e-9, {});
  // A time point must exist exactly at the pulse start.
  bool found = false;
  for (Real t : tr.times) {
    if (std::fabs(t - 3.33e-9) < 1e-15) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Transient, ChargeConservationOnCapDivider) {
  // Two series caps driven by a step: final voltages split by 1/C.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", in, kGround,
                  SourceWave::pulse(0.0, 1.0, 1e-9, 1e-10, 1e-10, 1.0, 0.0),
                  nl);
  nl.add<Capacitor>("C1", in, mid, 2e-12, nl);
  nl.add<Capacitor>("C2", mid, kGround, 1e-12, nl);
  nl.add<Resistor>("Rleak", mid, kGround, 1e12, nl);
  MnaSystem sys(nl);
  const TransientResult tr = runTransient(sys, 0.0, 10e-9, 0.05e-9, {});
  // V(mid) = 1 * C1/(C1+C2) = 2/3.
  EXPECT_NEAR(tr.finalState[nl.nodeIndex(mid)], 2.0 / 3.0, 1e-3);
}

// ------------------------------------------------------------ sensitivity

TEST(Sensitivity, DividerMatchesAnalyticAndFd) {
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(2.0), nl);
  auto& r1 = nl.add<Resistor>("R1", top, mid, 1e3, nl, 10.0);
  nl.add<Resistor>("R2", mid, kGround, 1e3, nl, 10.0);
  MnaSystem sys(nl);
  const DcResult dc = solveDc(sys);
  const auto sources = sys.collectSources();
  ASSERT_EQ(sources.size(), 2u);
  const RealVector sens =
      solveDcSensitivity(sys, dc.x, nl.nodeIndex(mid), sources);
  // vout = 2*R2/(R1+R2): dv/dR1 = -2 R2/(R1+R2)^2 = -0.5e-3,
  //                      dv/dR2 = +2 R1/(R1+R2)^2 = +0.5e-3.
  EXPECT_NEAR(sens[0], -0.5e-3, 1e-9);
  EXPECT_NEAR(sens[1], +0.5e-3, 1e-9);

  // Direct method agrees.
  const RealVector sensD =
      solveDcSensitivityDirect(sys, dc.x, nl.nodeIndex(mid), sources);
  EXPECT_NEAR(sens[0], sensD[0], 1e-12);
  EXPECT_NEAR(sens[1], sensD[1], 1e-12);

  // Finite difference through a re-solve agrees.
  r1.setMismatchDelta(0, 1.0);
  const DcResult dcP = solveDc(sys);
  r1.setMismatchDelta(0, -1.0);
  const DcResult dcM = solveDc(sys);
  r1.setMismatchDelta(0, 0.0);
  const Real fd =
      (dcP.x[nl.nodeIndex(mid)] - dcM.x[nl.nodeIndex(mid)]) / 2.0;
  EXPECT_NEAR(sens[0], fd, 1e-6 * std::fabs(fd) + 1e-12);
}

TEST(Sensitivity, MosfetBiasSensitivityMatchesFd) {
  auto kit = ProcessKit::cmos130();
  Netlist nl;
  const NodeId vdd = nl.node("vdd");
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add<VSource>("VDD", vdd, kGround, SourceWave::dc(kit.vdd), nl);
  nl.add<VSource>("VIN", in, kGround, SourceWave::dc(0.55), nl);
  addInverter(nl, "G1", in, out, vdd, kit, 0.6e-6, 1.2e-6);
  MnaSystem sys(nl);
  const DcResult dc = solveDc(sys);
  const auto sources = sys.collectSources();
  const RealVector sens =
      solveDcSensitivity(sys, dc.x, nl.nodeIndex(out), sources);
  DcOptions fdOpt;
  for (size_t i = 0; i < sources.size(); ++i) {
    Device* dev = sources[i].components[0].device;
    const size_t k = sources[i].components[0].index;
    const Real h = 1e-5;
    dev->setMismatchDelta(k, h);
    const Real vp = solveDc(sys, fdOpt, &dc.x).x[nl.nodeIndex(out)];
    dev->setMismatchDelta(k, -h);
    const Real vm = solveDc(sys, fdOpt, &dc.x).x[nl.nodeIndex(out)];
    dev->setMismatchDelta(k, 0.0);
    const Real fd = (vp - vm) / (2.0 * h);
    EXPECT_NEAR(sens[i], fd, 1e-3 * std::fabs(fd) + 1e-6)
        << sources[i].name;
  }
}

TEST(TransientSensitivity, RcCrossingTimeMatchesFd) {
  // Delay sensitivity of an RC to its resistor value.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add<VSource>("V1", in, kGround,
                  SourceWave::pulse(0.0, 1.0, 10e-9, 1e-9, 1e-9, 1e-3, 0.0),
                  nl);
  auto& r1 = nl.add<Resistor>("R1", in, out, 1e3, nl, 10.0);
  nl.add<Capacitor>("C1", out, kGround, 1e-9, nl);
  MnaSystem sys(nl);
  const auto sources = sys.collectSources();
  ASSERT_EQ(sources.size(), 1u);
  const TransientSensitivityResult ts =
      runTransientSensitivity(sys, 0.0, 5e-6, 2e-9, sources, {});
  const Real sDelay =
      ts.crossingTimeSensitivity(0, nl.nodeIndex(out), 0.5, +1);
  // Analytic: tc = tau*ln2 => dtc/dR = C*ln2 = 6.93e-13 s/ohm.
  EXPECT_NEAR(sDelay, 1e-9 * std::log(2.0), 0.02 * 1e-9 * std::log(2.0));

  // Finite-difference cross-check through full re-simulation.
  auto delayAt = [&](Real dr) {
    r1.setMismatchDelta(0, dr);
    const TransientResult tr = runTransient(sys, 0.0, 5e-6, 2e-9, {});
    r1.setMismatchDelta(0, 0.0);
    const Waveform w = makeWaveform(tr.times, tr.states, nl.nodeIndex(out));
    return *w.firstCrossing(0.5, +1);
  };
  const Real fd = (delayAt(5.0) - delayAt(-5.0)) / 10.0;
  EXPECT_NEAR(sDelay, fd, 0.05 * std::fabs(fd));
}

TEST(TransientReadouts, RejectOutOfRangeOutput) {
  // Output index n names no unknown: every transient readout must refuse
  // it instead of reading past the states (and sensitivity vectors).
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add<VSource>("V1", in, kGround,
                  SourceWave::pulse(0.0, 1.0, 10e-9, 1e-9, 1e-9, 1e-3, 0.0),
                  nl);
  nl.add<Resistor>("R1", in, out, 1e3, nl, 10.0);
  nl.add<Capacitor>("C1", out, kGround, 1e-9, nl);
  MnaSystem sys(nl);
  const int n = static_cast<int>(sys.size());
  const TransientResult tr = runTransient(sys, 0.0, 100e-9, 2e-9, {});
  const TransientSensitivityResult ts = runTransientSensitivity(
      sys, 0.0, 100e-9, 2e-9, sys.collectSources(), {});
  EXPECT_THROW(tr.waveform(n), Error);
  EXPECT_THROW(makeWaveform(tr.times, tr.states, n), Error);
  EXPECT_THROW(ts.crossingTimeSensitivity(0, n, 0.5, +1), Error);
  // In-range reads work.
  EXPECT_EQ(tr.waveform(n - 1).size(), tr.states.size());
  EXPECT_EQ(makeWaveform(tr.times, tr.states, n - 1).values.size(),
            tr.states.size());
}

}  // namespace
}  // namespace psmn
