// RF-layer tests: shooting PSS (driven and autonomous), the LPTV system
// behind the pnoise readouts (degenerate-LTI checks, adjoint == direct),
// PNOISE readouts, the PPV period sensitivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <string>

#include "circuit/diode.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "meas/measure.hpp"
#include "rf/pnoise.hpp"
#include "rf/pss.hpp"
#include "util/fault_injection.hpp"

namespace psmn {
namespace {

constexpr Real kPi = std::numbers::pi_v<Real>;

// Shared fixture circuit: RC lowpass driven by a sine, R has mismatch.
struct RcSineCircuit {
  Netlist nl;
  MnaSystem* sys = nullptr;
  int outIdx = -1;
  Resistor* r1 = nullptr;
  Real freq;
  Real r = 1e3, c;  // pole well above drive: partial attenuation

  // A slower drive scales C by the same factor, which keeps the pole where
  // it sits relative to the drive (50 Hz takes 0.4 uF).
  explicit RcSineCircuit(Real f = 1e6, Real cap = 20e-12) : freq(f), c(cap) {
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add<VSource>("V1", in, kGround, SourceWave::sine(0.5, 0.4, freq), nl);
    r1 = &nl.add<Resistor>("R1", in, out, r, nl, /*sigma=*/10.0);
    nl.add<Capacitor>("C1", out, kGround, c, nl);
    sys = new MnaSystem(nl);
    outIdx = nl.nodeIndex(out);
  }
  ~RcSineCircuit() { delete sys; }
};

// Half-wave rectifier: a diode into an RC load whose time constant is one
// period of the 1 MHz drive.
struct RectifierCircuit {
  Netlist nl;
  std::unique_ptr<MnaSystem> sys;
  int outIdx = -1;
  Real period = 1e-6;

  RectifierCircuit() {
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add<VSource>("V1", in, kGround, SourceWave::sine(0.0, 1.0, 1e6), nl);
    nl.add<Diode>("D1", in, out, DiodeModel{}, nl);
    nl.add<Resistor>("RL", out, kGround, 10e3, nl);
    nl.add<Capacitor>("CL", out, kGround, 100e-12, nl);
    sys = std::make_unique<MnaSystem>(nl);
    outIdx = nl.nodeIndex(out);
  }
};

// The warm-up fallback of driven shooting is exactly the warm-started
// solve: the same orbit and monodromy, bit for bit.
void expectSameOrbit(const PssResult& got, const PssResult& want) {
  EXPECT_TRUE(got.states == want.states);
  EXPECT_TRUE(orbitMonodromy(got) == orbitMonodromy(want));
}

TEST(PssDriven, LinearRcMatchesAcAnalysis) {
  RcSineCircuit ckt;
  PssOptions opt;
  opt.stepsPerPeriod = 2000;  // BE is O(h); fine grid for the comparison
  const PssResult pss = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);

  // Shooting on a linear circuit converges in very few iterations.
  EXPECT_LE(pss.shootingIterations, 3);
  // Periodicity.
  for (size_t i = 0; i < ckt.sys->size(); ++i) {
    EXPECT_NEAR(pss.states.front()[i], pss.states.back()[i], 1e-8);
  }
  // Fundamental matches the AC solution within the BE discretization error.
  const Cplx x1 = pss.fourier(ckt.outIdx, 1);
  const Cplx hExpected =
      1.0 / Cplx(1.0, 2 * kPi * ckt.freq * ckt.r * ckt.c);
  // Drive: 0.5 + 0.4 sin(wt) -> fundamental coefficient of sin is
  // 0.4 * (1/(2j)) at +1 harmonic.
  const Cplx drive1 = 0.4 / Cplx(0.0, 2.0);
  EXPECT_LT(std::abs(x1 - hExpected * drive1), 2e-3);
  // DC component: 0.5 passes straight through.
  EXPECT_NEAR(pss.fourier(ckt.outIdx, 0).real(), 0.5, 1e-4);
}

TEST(PssDriven, MonodromyOfRcIsExpMinusToverTau) {
  RcSineCircuit ckt;
  PssOptions opt;
  opt.stepsPerPeriod = 400;
  const PssResult pss = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);
  // The only dynamic state is v(out); its Floquet multiplier is the BE
  // discretization of exp(-T/tau): (1 + h/tau)^-M.
  const Real tau = ckt.r * ckt.c;
  const Real h = pss.stepSize();
  const Real expected =
      std::pow(1.0 + h / tau, -static_cast<Real>(pss.stepCount()));
  EXPECT_NEAR(orbitMonodromy(pss)(ckt.outIdx, ckt.outIdx), expected,
              1e-6 * expected + 1e-12);
}

TEST(PssDriven, DiodeRectifierReachesPeriodicState) {
  RectifierCircuit ckt;
  PssOptions opt;
  opt.stepsPerPeriod = 600;
  opt.warmupCycles = 2;
  const PssResult pss = solvePssDriven(*ckt.sys, ckt.period, opt);
  for (size_t i = 0; i < ckt.sys->size(); ++i) {
    EXPECT_NEAR(pss.states.front()[i], pss.states.back()[i], 1e-7);
  }
  // Rectified output: positive DC with small ripple.
  const Real vdc = pss.fourier(ckt.outIdx, 0).real();
  EXPECT_GT(vdc, 0.2);
  const Real ripple = 2.0 * std::abs(pss.fourier(ckt.outIdx, 1));
  EXPECT_LT(ripple, 0.5 * vdc);
}

TEST(PssDriven, FallsBackToWarmupWhenFirstIntegrationFails) {
  // Every inner-Newton acceptance of the first shooting integration's first
  // step is refused, so shooting from the DC point fails before its first
  // update. The fallback warms up from the DC point and shoots again. The
  // step's opening Newton iteration cannot converge (the drive moves), so
  // the other maxNewton - 1 are all the acceptances there are to refuse:
  // arming exactly those leaves the fallback's warm-up fault-free.
  RectifierCircuit ckt;
  PssOptions opt;
  opt.stepsPerPeriod = 100;
  opt.warmupCycles = 3;
  const RealVector warm =
      pssWarmup(*ckt.sys, ckt.period, opt.warmupCycles, opt);
  const PssResult ref = solvePssDriven(*ckt.sys, ckt.period, opt, &warm);

  const int maxNewton = shootingStepOptions().maxNewton;
  FaultPlan plan;
  plan.arm("tran.newton.converge", 0, maxNewton - 1);
  {
    FaultScope scope(plan);
    const PssResult res = solvePssDriven(*ckt.sys, ckt.period, opt);
    EXPECT_EQ(scope.fired("tran.newton.converge"), maxNewton - 1);
    expectSameOrbit(res, ref);
    EXPECT_EQ(res.shootingIterations, ref.shootingIterations);
    EXPECT_EQ(res.stats.steps, 4u * 100u);
  }

  // With no warm-up to fall back on, the first attempt's error surfaces.
  opt.warmupCycles = 0;
  FaultScope scope(plan);
  EXPECT_THROW(solvePssDriven(*ckt.sys, ckt.period, opt), ConvergenceError);
}

TEST(PssDriven, FallsBackToWarmupWhenBudgetRunsOut) {
  // The comparator testbench needs 3 shooting iterations from its DC point
  // (pinned in ComparatorIntegration.OffsetSigmaMatchesMonteCarlo). With a
  // budget of one the first attempt runs out, and the fallback's 40-period
  // warm-up brings the start within one iteration of the orbit.
  Netlist nl;
  const auto kit = ProcessKit::cmos130();
  const auto tb = buildComparatorTestbench(nl, kit);
  const MnaSystem sys(nl);
  PssOptions opt;
  opt.stepsPerPeriod = 400;
  opt.warmupCycles = 40;
  opt.maxShootingIterations = 1;
  const RealVector warm = pssWarmup(sys, tb.clkPeriod, opt.warmupCycles, opt);
  const PssResult ref = solvePssDriven(sys, tb.clkPeriod, opt, &warm);
  const PssResult res = solvePssDriven(sys, tb.clkPeriod, opt);
  expectSameOrbit(res, ref);
  EXPECT_EQ(res.shootingIterations, 2);
  EXPECT_EQ(res.stats.steps, (2u + 40u) * 400u);
}

TEST(PssDriven, ShootingBeatsSlowSettlingTransient) {
  // High-Q-ish slow RC settling: tau >> T. Shooting needs a handful of
  // iterations where brute-force settling needs >> tau/T cycles.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add<VSource>("V1", in, kGround, SourceWave::sine(1.0, 0.5, 1e6), nl);
  nl.add<Resistor>("R1", in, out, 100e3, nl);   // tau = 100 us = 100 T
  nl.add<Capacitor>("C1", out, kGround, 1e-9, nl);
  MnaSystem sys(nl);
  PssOptions opt;
  opt.stepsPerPeriod = 200;
  opt.warmupCycles = 0;
  const PssResult pss = solvePssDriven(sys, 1e-6, opt);
  EXPECT_LE(pss.shootingIterations, 3);
  EXPECT_NEAR(pss.fourier(nl.nodeIndex(out), 0).real(), 1.0, 1e-3);
}

// ------------------------------------------------------------- LPTV / LTI

TEST(Lptv, DegeneratesToAcTransferOnLtiCircuit) {
  // For an LTI circuit the LPTV envelope is constant and equals the AC
  // transfer at the offset frequency; all N != 0 harmonics vanish.
  RcSineCircuit ckt;
  PssOptions opt;
  opt.stepsPerPeriod = 400;
  const PssResult pss = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);
  const auto sources = ckt.sys->collectSources();
  ASSERT_EQ(sources.size(), 1u);

  const PnoiseAnalysis pn(*ckt.sys, pss, sources);
  const LptvSolution& sol = pn.solution();

  // The resistor-mismatch source is NOT LTI (its modulation follows the
  // current through R1), so instead check via a dedicated LTI circuit: use
  // the sideband-0 response against the quasi-static sensitivity:
  // d v(out)/dR at DC bias = I_R/ ... here we only check harmonic
  // orthogonality of the envelope: the response must be dominated by the
  // N=0 and N=±1 terms that the modulation creates.
  const Cplx p0 = sol.harmonic(0, ckt.outIdx, 0);
  EXPECT_GT(std::abs(p0), 0.0);
}

TEST(Lptv, AdjointMatchesDirectAcrossHarmonics) {
  RcSineCircuit ckt;
  PssOptions opt;
  opt.stepsPerPeriod = 300;
  const PssResult pss = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);
  const auto sources = ckt.sys->collectSources();
  const PnoiseAnalysis pn(*ckt.sys, pss, sources);
  const LptvSolution& direct = pn.solution();
  for (int harmonic : {0, 1, 2, -1}) {
    const CplxVector adj = pn.sideband(ckt.outIdx, harmonic).transfer;
    for (size_t s = 0; s < sources.size(); ++s) {
      const Cplx d = direct.harmonic(s, ckt.outIdx, harmonic);
      EXPECT_LT(std::abs(adj[s] - d), 1e-9 + 1e-6 * std::abs(d))
          << "harmonic " << harmonic << " source " << s;
    }
  }
}

// sideband()'s adjoint transfers against solution().harmonic() on one
// orbit: every source within relTol * max_s |direct|.
void expectAdjointMatchesDirect(const MnaSystem& sys, const PssResult& pss,
                                int out, int harmonic, Real relTol,
                                const std::string& what) {
  const PnoiseAnalysis pn(sys, pss, PnoiseOptions{});
  const PnoiseSideband sb = pn.sideband(out, harmonic);
  const LptvSolution& direct = pn.solution();
  ASSERT_EQ(sb.transfer.size(), pn.sources().size()) << what;
  Real scale = 0.0;
  for (size_t s = 0; s < sb.transfer.size(); ++s) {
    scale = std::max(scale, std::abs(direct.harmonic(s, out, harmonic)));
  }
  ASSERT_GT(scale, 0.0) << what;
  for (size_t s = 0; s < sb.transfer.size(); ++s) {
    EXPECT_LE(std::abs(sb.transfer[s] - direct.harmonic(s, out, harmonic)),
              relTol * scale)
        << what << " harmonic " << harmonic << " " << pn.sources()[s].name;
  }
}

TEST(Lptv, AdjointMatchesDirectOnSwitchingCircuit) {
  auto kit = ProcessKit::cmos130();
  {
    // A genuinely time-varying circuit: CMOS inverter driven by a clock.
    Netlist nl;
    const NodeId vdd = nl.node("vdd");
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add<VSource>("VDD", vdd, kGround, SourceWave::dc(kit.vdd), nl);
    const Real period = 4e-9;
    nl.add<VSource>("VIN", in, kGround,
                    SourceWave::pulse(0.0, kit.vdd, 0.0, period / 20,
                                      period / 20, period * 0.45, period),
                    nl);
    addInverter(nl, "G1", in, out, vdd, kit, 0.6e-6, 1.2e-6);
    nl.add<Capacitor>("CL", out, kGround, 10e-15, nl);
    MnaSystem sys(nl);
    PssOptions opt;
    opt.stepsPerPeriod = 200;
    const PssResult pss = solvePssDriven(sys, period, opt);
    ASSERT_EQ(sys.collectSources().size(), 4u);
    for (int harmonic : {0, 1}) {
      expectAdjointMatchesDirect(sys, pss, nl.nodeIndex(out), harmonic, 1e-12,
                                 "inverter");
    }
  }
  {
    // The paper's comparator testbench (Fig. 6), read at baseband.
    Netlist nl;
    const auto tb = buildComparatorTestbench(nl, kit);
    MnaSystem sys(nl);
    PssOptions opt;
    opt.stepsPerPeriod = 400;
    const PssResult pss = solvePssDriven(sys, tb.clkPeriod, opt);
    expectAdjointMatchesDirect(sys, pss, tb.vosIndex, 0, 1e-12, "comparator");
  }
  {
    // The Fig. 7 logic path on its 800-step grid, first sideband.
    Netlist nl;
    const auto lp = buildLogicPath(nl, kit, {});
    MnaSystem sys(nl);
    PssOptions opt;
    opt.stepsPerPeriod = 800;
    const PssResult pss = solvePssDriven(sys, lp.period, opt);
    expectAdjointMatchesDirect(sys, pss, nl.nodeIndex(lp.outA), 1, 1e-12,
                               "logic path");
  }
  {
    // A 68-unknown inverter chain.
    Netlist nl;
    InverterChainOptions copt;
    copt.stages = 8;
    copt.rows = 8;
    const auto chain = buildInverterChain(nl, kit, copt);
    MnaSystem sys(nl);
    PssOptions opt;
    opt.stepsPerPeriod = 80;
    const PssResult pss = solvePssDriven(sys, copt.period, opt);
    expectAdjointMatchesDirect(sys, pss, nl.nodeIndex(chain.taps.back()), 1,
                               1e-12, "chain");
  }
  {
    // The autonomous ring. Both closures restore the phase-mode eigenvalue
    // with a rank-one correction, but the forward one applies it at the
    // p_M -> p_0 cut and the adjoint at the l_1 cut, so the two transfers
    // differ by the correction's discretization error, not by roundoff: one
    // factor common to every source, 1 + 1.6e-5 at 400 steps
    // (Lptv.OscillatorAdjointIsOneFactorOfDirect).
    Netlist nl;
    const auto osc = buildRingOscillator(nl, kit);
    MnaSystem sys(nl);
    const RingWarmup warm = warmupRingOscillator(sys, osc);
    PssOptions opt;
    opt.stepsPerPeriod = 400;
    const PssResult pss = solvePssAutonomous(
        sys, warm.periodEstimate, warm.phaseIndex, warm.state, opt);
    expectAdjointMatchesDirect(sys, pss, warm.phaseIndex, 1, 1e-4, "ring");
  }
}

// On an oscillator the two readouts differ only in where the phase-mode
// correction cuts the cycle, and both corrections act along the same
// phase mode (the adjoint closure V_1 = Y_1 D_1^T and the forward Phi =
// Y_1^T D_1 share it), so every source's adjoint transfer is its direct
// Fourier coefficient times one factor. The spread of that factor across
// the ring's 20 sources reads at most 8.0e-12. Carrying the corrected l_1
// through the uncorrected recursion for every l_k, instead of reading the
// transfers from the sweep's accumulators, scatters it by 2.9e-5 (400
// steps) to 2.5e-4 (200 steps).
TEST(Lptv, OscillatorAdjointIsOneFactorOfDirect) {
  constexpr Real kFactorSpread = 1e-9;
  const auto kit = ProcessKit::cmos130();
  Netlist nl;
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  const RingWarmup warm = warmupRingOscillator(sys, osc);
  for (int steps : {200, 400}) {
    PssOptions opt;
    opt.stepsPerPeriod = steps;
    const PssResult pss = solvePssAutonomous(
        sys, warm.periodEstimate, warm.phaseIndex, warm.state, opt);
    const PnoiseAnalysis pn(sys, pss);
    const LptvSolution& direct = pn.solution();
    for (int harmonic : {1, 2}) {
      const PnoiseSideband sb = pn.sideband(warm.phaseIndex, harmonic);
      Real lo = std::numeric_limits<Real>::infinity(), hi = -lo;
      for (size_t s = 0; s < sb.transfer.size(); ++s) {
        const Real f =
            (sb.transfer[s] / direct.harmonic(s, warm.phaseIndex, harmonic))
                .real();
        lo = std::min(lo, f);
        hi = std::max(hi, f);
      }
      EXPECT_LE(hi - lo, kFactorSpread)
          << steps << " steps, harmonic " << harmonic << ", factor " << lo;
    }
  }
}

TEST(Lptv, BasebandEnvelopeIsQuasiStaticSensitivity) {
  // At a 1 Hz offset the envelope of a driven circuit equals the static
  // sensitivity of the PSS orbit to the parameter: verify against a
  // finite-difference re-shoot for the resistor mismatch.
  RcSineCircuit ckt;
  PssOptions opt;
  opt.stepsPerPeriod = 400;
  const PssResult pss = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);
  const PnoiseAnalysis pn(*ckt.sys, pss);
  const LptvSolution& sol = pn.solution();

  const Real dr = 0.5;  // ohms
  ckt.r1->setMismatchDelta(0, dr);
  const PssResult pssP = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);
  ckt.r1->setMismatchDelta(0, -dr);
  const PssResult pssM = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);
  ckt.r1->setMismatchDelta(0, 0.0);

  for (size_t k = 0; k < pss.stepCount(); k += 37) {
    const Real fd = (pssP.states[k][ckt.outIdx] - pssM.states[k][ckt.outIdx]) /
                    (2.0 * dr);
    const Cplx env = sol.envelopes[0][k][ckt.outIdx];
    EXPECT_NEAR(env.real(), fd, 5e-3 * std::fabs(fd) + 1e-9) << "k=" << k;
    EXPECT_LT(std::fabs(env.imag()), 1e-2 * std::fabs(fd) + 1e-9);
  }
}

// --------------------------------------------------------------- PNOISE

TEST(Pnoise, BasebandVarianceMatchesDcSensitivityOnDivider) {
  // DC-driven divider: pnoise baseband at 1 Hz == DC-match variance.
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", top, kGround, SourceWave::dc(2.0), nl);
  nl.add<Resistor>("R1", top, mid, 1e3, nl, 10.0);
  nl.add<Resistor>("R2", mid, kGround, 1e3, nl, 10.0);
  nl.add<Capacitor>("C1", mid, kGround, 1e-12, nl);
  // Small sine rider so the PSS has a genuine period.
  MnaSystem sys(nl);
  PssOptions opt;
  opt.stepsPerPeriod = 100;
  const PssResult pss = solvePssDriven(sys, 1e-6, opt);
  PnoiseOptions popt;
  PnoiseAnalysis pn(sys, pss, popt);
  const PnoiseSideband sb = pn.sideband(nl.nodeIndex(mid), 0);
  // sigma_out = |dV/dR| * sigmaR * sqrt(2) = 0.5e-3 * 10 * 1.414 = 7.07e-3.
  const Real expected = 0.5e-3 * 10.0 * std::sqrt(2.0);
  EXPECT_NEAR(std::sqrt(sb.totalPsd), expected, 1e-3 * expected);
  // Both resistors contribute equally.
  ASSERT_EQ(sb.contribution.size(), 2u);
  EXPECT_NEAR(sb.contribution[0], sb.contribution[1],
              1e-6 * sb.contribution[0]);
}

// sigma(t) of the RC's output against the finite difference of re-shot
// PSS orbits at R1 +- 0.5 ohm, within 1% at every 29th grid point.
void expectStatisticalWaveformMatchesFd(RcSineCircuit& ckt) {
  PssOptions opt;
  opt.stepsPerPeriod = 200;
  const PssResult pss = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);
  PnoiseAnalysis pn(*ckt.sys, pss, PnoiseOptions{});
  const StatisticalWaveform sw = pn.statistical(ckt.outIdx);
  ASSERT_EQ(sw.sigma.size(), pss.stepCount());
  // sigma(t) = |dvout(t)/dR| * sigmaR; check at a few points by FD.
  const Real dr = 0.5;
  ckt.r1->setMismatchDelta(0, dr);
  const PssResult pssP = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);
  ckt.r1->setMismatchDelta(0, -dr);
  const PssResult pssM = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);
  ckt.r1->setMismatchDelta(0, 0.0);
  for (size_t k = 0; k < pss.stepCount(); k += 29) {
    const Real fd = std::fabs(pssP.states[k][ckt.outIdx] -
                              pssM.states[k][ckt.outIdx]) /
                    (2.0 * dr) * 10.0;  // * sigmaR
    EXPECT_NEAR(sw.sigma[k], fd, 0.01 * fd + 1e-9) << "k=" << k;
  }
}

TEST(Pnoise, StatisticalWaveformMatchesFdEnvelope) {
  RcSineCircuit ckt;
  expectStatisticalWaveformMatchesFd(ckt);
}

TEST(Pnoise, AcceptsDrivenOrbitBelow100Hz) {
  // A driven orbit's recursion runs at w = 0 and never sees the 1 Hz
  // offset, so a 50 Hz drive (fundamental below 100 offsets) is read like
  // the 1 MHz one.
  RcSineCircuit ckt(50.0, 0.4e-6);
  expectStatisticalWaveformMatchesFd(ckt);
}

TEST(Pnoise, ReadoutsRejectOutOfRangeOutput) {
  // Output index n names no unknown: every readout must refuse it instead
  // of reading past the orbit states or the envelope vectors.
  RcSineCircuit ckt;
  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 100;
  TransientMismatchAnalysis an(*ckt.sys, opt);
  an.runDriven(1.0 / ckt.freq);
  const int n = static_cast<int>(ckt.sys->size());
  const size_t points[] = {0, 1};
  EXPECT_THROW(an.pss().waveform(n), Error);
  EXPECT_THROW(an.dcVariation(n), Error);
  EXPECT_THROW(an.delayVariation(n), Error);
  EXPECT_THROW(an.frequencyVariation(n), Error);
  EXPECT_THROW(an.edgeDelayVariation(n, 0.5, +1), Error);
  EXPECT_THROW(an.pnoise().statistical(n), Error);
  EXPECT_THROW(an.pnoise().samples(n, points), Error);
  EXPECT_THROW(an.pnoise().solution().harmonic(0, n, 0), Error);
  // A grid point past the period is refused too; in-range reads work.
  const size_t pastEnd[] = {an.pss().stepCount()};
  EXPECT_THROW(an.pnoise().samples(ckt.outIdx, pastEnd), Error);
  EXPECT_EQ(an.pnoise().samples(ckt.outIdx, points).size(), 2u);
}

// ----------------------------------------------------------- oscillator

struct RingFixture {
  Netlist nl;
  MnaSystem* sys = nullptr;
  RingOscillatorCircuit osc;
  int phaseIdx = -1;
  RealVector x0;
  Real periodGuess = 0.0;

  explicit RingFixture(Real mismatchScale = 1.0,
                       RingOscillatorOptions oopt = {}) {
    auto kit = ProcessKit::cmos130(mismatchScale);
    osc = buildRingOscillator(nl, kit, oopt);
    sys = new MnaSystem(nl);
    phaseIdx = nl.nodeIndex(osc.stages[0]);

    // Kick and free-run to estimate the period and land near the orbit.
    RealVector kick(sys->size(), 0.0);
    DcOptions dopt;
    kick = solveDc(*sys, dopt).x;
    for (size_t i = 0; i < osc.stages.size(); ++i) {
      kick[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.25 : -0.25);
    }
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    topt.initialState = &kick;
    const TransientResult tr = runTransient(*sys, 0.0, 30e-9, 10e-12, topt);
    const Waveform w = makeWaveform(tr.times, tr.states, phaseIdx);
    periodGuess = measurePeriod(w, 0.6, 3);
    x0 = tr.finalState;
  }
  ~RingFixture() { delete sys; }
};

TEST(PssAutonomous, RingOscillatorConverges) {
  RingFixture ring;
  PssOptions opt;
  opt.stepsPerPeriod = 400;
  const PssResult pss =
      solvePssAutonomous(*ring.sys, ring.periodGuess, ring.phaseIdx, ring.x0,
                         opt);
  // Period close to the transient estimate (BE damping affects both
  // equally since the warmup used the same step size scale).
  EXPECT_NEAR(pss.period, ring.periodGuess, 0.05 * ring.periodGuess);
  // Periodicity.
  for (size_t i = 0; i < ring.sys->size(); ++i) {
    EXPECT_NEAR(pss.states.front()[i], pss.states.back()[i], 1e-7);
  }
  // Rail-to-rail-ish swing.
  const RealVector w = pss.waveform(ring.phaseIdx);
  const Real vmax = *std::max_element(w.begin(), w.end());
  const Real vmin = *std::min_element(w.begin(), w.end());
  EXPECT_GT(vmax, 1.0);
  EXPECT_LT(vmin, 0.2);
  // The monodromy of an oscillator has a Floquet multiplier at 1.
  // Power-check: det(I - Phi) ~ 0 -> (I - Phi) nearly singular. Use the
  // PPV residual instead (computed below in PpvTest).
}

TEST(PssAutonomous, FrequencySensitivityViaPnoiseMatchesReshoot) {
  // The headline oscillator check: eq. 9 frequency sensitivities from the
  // 1 Hz LPTV solve must match finite-difference re-shooting per parameter.
  RingFixture ring;
  PssOptions opt;
  opt.stepsPerPeriod = 300;
  const PssResult pss = solvePssAutonomous(*ring.sys, ring.periodGuess,
                                           ring.phaseIdx, ring.x0, opt);
  PnoiseAnalysis pn(*ring.sys, pss, PnoiseOptions{});
  const PnoiseSideband sb = pn.sideband(ring.phaseIdx, 1);
  const auto& sources = pn.sources();
  const Cplx v1 = pss.fourier(ring.phaseIdx, 1);

  // Pick the first nmos dvt source and one dbeta source.
  for (size_t si : {size_t{0}, size_t{1}}) {
    const Real sPnoise = (sb.transfer[si] * sb.offsetFreq / v1).real();
    // FD re-shoot.
    Device* dev = sources[si].components[0].device;
    const size_t k = sources[si].components[0].index;
    const Real h = (k == 0) ? 2e-4 : 2e-3;
    dev->setMismatchDelta(k, h);
    const PssResult pssP = solvePssAutonomous(*ring.sys, pss.period,
                                              ring.phaseIdx, pss.states[0],
                                              opt);
    dev->setMismatchDelta(k, -h);
    const PssResult pssM = solvePssAutonomous(*ring.sys, pss.period,
                                              ring.phaseIdx, pss.states[0],
                                              opt);
    dev->setMismatchDelta(k, 0.0);
    const Real fd =
        (1.0 / pssP.period - 1.0 / pssM.period) / (2.0 * h);
    EXPECT_NEAR(sPnoise, fd, 0.03 * std::fabs(fd) + 1e-3)
        << sources[si].name;
  }
}

TEST(Pnoise, RejectsOscillatorBelow100Hz) {
  // An oscillator's recursion runs at the 1 Hz offset, which must sit far
  // below its fundamental. The guard reads only the period, so a solved
  // ring's orbit relabelled to a 20 ms period (50 Hz) stands for a slow
  // oscillator.
  RingFixture ring;
  PssOptions opt;
  opt.stepsPerPeriod = 300;
  PssResult pss = solvePssAutonomous(*ring.sys, ring.periodGuess,
                                     ring.phaseIdx, ring.x0, opt);
  ASSERT_TRUE(pss.autonomous);
  EXPECT_NO_THROW(PnoiseAnalysis(*ring.sys, pss));
  pss.period = 20e-3;
  EXPECT_THROW(PnoiseAnalysis(*ring.sys, pss), Error);
}

TEST(Ppv, FrequencySensitivityMatchesPnoiseReadout) {
  RingFixture ring;
  PssOptions opt;
  opt.stepsPerPeriod = 300;
  const PssResult pss = solvePssAutonomous(*ring.sys, ring.periodGuess,
                                           ring.phaseIdx, ring.x0, opt);
  PnoiseAnalysis pn(*ring.sys, pss, PnoiseOptions{});
  const RealVector dTdp = pn.periodSensitivity();
  const PnoiseSideband sb = pn.sideband(ring.phaseIdx, 1);
  const Cplx v1 = pss.fourier(ring.phaseIdx, 1);
  const Real f0 = 1.0 / pss.period;
  const auto& sources = pn.sources();
  ASSERT_EQ(dTdp.size(), sources.size());
  for (size_t si = 0; si < std::min<size_t>(4, sources.size()); ++si) {
    const Real fromPnoise = (sb.transfer[si] * sb.offsetFreq / v1).real();
    const Real fromPpv = -f0 * f0 * dTdp[si];
    EXPECT_NEAR(fromPpv, fromPnoise,
                0.02 * std::fabs(fromPnoise) + 1e-3)
        << sources[si].name;
  }
}

TEST(Ppv, RequiresAutonomousResult) {
  RcSineCircuit ckt;
  PssOptions opt;
  opt.stepsPerPeriod = 100;
  const PssResult pss = solvePssDriven(*ckt.sys, 1.0 / ckt.freq, opt);
  EXPECT_THROW(PnoiseAnalysis(*ckt.sys, pss).periodSensitivity(), Error);
}

}  // namespace
}  // namespace psmn
