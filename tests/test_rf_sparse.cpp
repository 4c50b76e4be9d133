// Dense-oracle tests for the RF engines: shooting PSS (driven and
// autonomous), the LPTV recursions, periodic noise, the time-domain
// statistical waveform and the PPV sweep run on the sparse Newton path
// (declared pattern, SparseLU refactorization, the monodromy sweep over the
// stored step factors, batched column solves). Each answer is checked against a reference that never
// runs that sparse linear algebra: the BE orbit against DenseLU Newton
// corrections of its evalDense residuals (tests/dense_oracle.hpp), and the
// monodromy, dx/dT, LPTV transfers, sidebands, sigma(t) and PPV sweep
// rebuilt with DenseLU from toDense() of the orbit's stored G_k / C_k.
// Fixtures span small (12-unknown) and large (68-unknown) circuits.
//
// Also holds the regression fixture for the autonomous-shooting FD step:
// shooting on the ring oscillator must converge in a handful of
// iterations (the 1e-7*T finite-difference step once made it limp to the
// iteration cap), the exact checks that shooting stores its converged
// integration and sweeps the monodromy only on the iterations that did not
// close, the pool-vs-serial goldens of the RF fan-outs, the roundoff check
// of the LPTV direct solve against the per-source algorithm, and the solve
// columns one direct edge readout costs.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <type_traits>

#include "circuit/diode.hpp"
#include "circuit/parser.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "dense_oracle.hpp"
#include "engine/dc.hpp"
#include "numeric/dense_lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "rf/pnoise.hpp"
#include "rf/ppv.hpp"
#include "rf/pss.hpp"
#include "runtime/thread_pool.hpp"
#include "util/telemetry.hpp"

namespace psmn {
namespace {

PssOptions pssOptions(int stepsPerPeriod) {
  PssOptions opt;
  opt.stepsPerPeriod = stepsPerPeriod;
  return opt;
}

// ------------------------------------------------------ dense references

// Tolerances of the dense references. kOrbitTol (V): the PSS inner Newton
// stops at an update of 1e-10 (shootingStepOptions), and the BE oracle
// takes q_{k-1} at the accepted state where the kernel took it at its last
// iterate, so a correct orbit reads about 1e-10 (measured 2e-11 to 9e-11).
// kMonodromyTol, kLptvTol, kPpvTol (relative to the largest entry): the
// same stored matrices factored by DenseLU instead of SparseLU, so only LU
// roundoff, amplified by the conditioning of the recursions and closures,
// separates the answers (measured: monodromy 1.3e-15, LPTV envelopes
// 5e-16, PPV 3e-14). A wrong factor or a skipped column moves them by O(1).
constexpr Real kOrbitTol = 1e-9;
constexpr Real kMonodromyTol = 1e-10;
constexpr Real kLptvTol = 1e-10;
constexpr Real kPpvTol = 1e-10;

/// J_k = G_k + C_k/h of the orbit's stored linearization at grid point k.
RealMatrix stepJacobian(const PssResult& pss, size_t k) {
  RealMatrix c = pss.cSpMats[k].toDense();
  c *= 1.0 / pss.stepSize();
  return pss.gSpMats[k].toDense() + c;
}

/// D_k = C_{k-1}/h.
RealMatrix stepCoupling(const PssResult& pss, size_t k) {
  RealMatrix d = pss.cSpMats[k - 1].toDense();
  d *= 1.0 / pss.stepSize();
  return d;
}

/// The monodromy Phi = prod_k J_k^{-1} D_k, rebuilt with DenseLU.
RealMatrix denseMonodromy(const PssResult& pss) {
  RealMatrix phi = RealMatrix::identity(pss.states.front().size());
  for (size_t k = 1; k <= pss.stepCount(); ++k) {
    phi = DenseLU<Real>(stepJacobian(pss, k))
              .solveMatrix(matmul(stepCoupling(pss, k), phi));
  }
  return phi;
}

/// Checks a shooting solution against the dense references: every BE step
/// of the orbit within kOrbitTol of its discrete equation, the orbit closed
/// to shootingTol, the stored G_k / C_k equal to evalDense's at the orbit
/// states (bit for bit at k = 0, where both are evaluated at the start
/// point through one stamping loop; elsewhere they were evaluated at the
/// last Newton iterate, within the step's updateTol of the state, so to 1e-6
/// relative), and orbitMonodromy's sweep equal to the DenseLU rebuild.
void expectOrbitMatchesDenseOracle(const MnaSystem& sys, const PssResult& pss,
                                   const PssOptions& opt,
                                   const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(pss.gSpMats.size(), pss.times.size());
  ASSERT_EQ(pss.cSpMats.size(), pss.times.size());
  EXPECT_LT(oracle::beTrajectoryDistance(sys, pss.times, pss.states),
            kOrbitTol);
  RealVector gap = pss.states.back();
  for (size_t i = 0; i < gap.size(); ++i) gap[i] -= pss.states.front()[i];
  EXPECT_LT(oracle::maxAbs(gap), opt.shootingTol);

  RealMatrix g, c;
  for (size_t k = 0; k < pss.times.size(); ++k) {
    sys.evalDense(pss.states[k], pss.times[k], nullptr, nullptr, &g, &c, {});
    if (k == 0) {
      EXPECT_EQ(pss.gSpMats[0].toDense(), g);
      EXPECT_EQ(pss.cSpMats[0].toDense(), c);
      continue;
    }
    EXPECT_LE(maxAbsDiff(pss.gSpMats[k].toDense(), g), 1e-6 * maxAbs(g))
        << "k=" << k;
    EXPECT_LE(maxAbsDiff(pss.cSpMats[k].toDense(), c), 1e-6 * maxAbs(c))
        << "k=" << k;
  }

  const RealMatrix phi = denseMonodromy(pss);
  EXPECT_LT(maxAbsDiff(orbitMonodromy(pss), phi), kMonodromyTol * maxAbs(phi));
}

// ------------------------------------------------------------ driven PSS

struct ChainFixture {
  Netlist nl;
  std::unique_ptr<MnaSystem> sys;
  Real period = 0.0;
  int outIdx = -1;
  std::vector<InjectionSource> sources;

  explicit ChainFixture(int rows, int stages = 8) {
    auto kit = ProcessKit::cmos130();
    InverterChainOptions copt;
    copt.stages = stages;
    copt.rows = rows;
    const auto chain = buildInverterChain(nl, kit, copt);
    sys = std::make_unique<MnaSystem>(nl);
    period = copt.period;
    outIdx = nl.nodeIndex(chain.taps.back());
    sources = sys->collectSources();
  }
};

class PssDrivenGolden : public ::testing::TestWithParam<int> {};

TEST_P(PssDrivenGolden, MatchesDenseOracle) {
  ChainFixture ckt(GetParam());
  const PssOptions opt = pssOptions(100);
  const PssResult pss = solvePssDriven(*ckt.sys, ckt.period, opt);
  expectOrbitMatchesDenseOracle(*ckt.sys, pss, opt, "chain");
  // Shooting from the DC point converges on the first integration: at 100
  // steps per period both chains return to their DC state.
  EXPECT_EQ(pss.shootingIterations, 1);
}

// Small (rows=1: 12 unknowns) and large (rows=8: 68 unknowns) chains.
INSTANTIATE_TEST_SUITE_P(ChainSizes, PssDrivenGolden, ::testing::Values(1, 8));

// -------------------------------------------------------- autonomous PSS

struct RingGolden {
  Netlist nl;
  std::unique_ptr<MnaSystem> sys;
  RingOscillatorCircuit osc;
  RingWarmup warm;

  explicit RingGolden(int stages, Real runTime, Real dt) {
    auto kit = ProcessKit::cmos130();
    RingOscillatorOptions oopt;
    oopt.stages = stages;
    osc = buildRingOscillator(nl, kit, oopt);
    sys = std::make_unique<MnaSystem>(nl);
    warm = warmupRingOscillator(*sys, osc, runTime, dt);
  }
};

/// Autonomous shooting from (periodGuess, x0) checked against the dense
/// references: the orbit (expectOrbitMatchesDenseOracle), the phase
/// condition, and dx/dT. The engine's dx/dT is the forward difference of
/// two period integrations from states[0]: the stored orbit over T and one
/// over T + dT, dT = 1e-4 T. Replaying the latter on the stepping kernel
/// and holding every step to the BE oracle puts both end states within
/// kOrbitTol of the exact discrete solutions, so dx/dT must lie within
/// 2 kOrbitTol / dT of the exact discrete difference.
void expectAutonomousMatchesDenseOracle(RingGolden& ring, Real periodGuess,
                                        const RealVector& x0,
                                        int stepsPerPeriod) {
  const MnaSystem& sys = *ring.sys;
  const PssOptions opt = pssOptions(stepsPerPeriod);
  const int p = ring.warm.phaseIndex;
  const PssResult pss = solvePssAutonomous(sys, periodGuess, p, x0, opt);
  expectOrbitMatchesDenseOracle(sys, pss, opt, "ring");
  EXPECT_NEAR(pss.states.front()[p], x0[p], opt.shootingTol);

  const TranOptions topt = shootingStepOptions();
  const Real dT = 1e-4 * pss.period;
  const Real h = (pss.period + dT) / stepsPerPeriod;
  std::vector<Real> times{0.0};
  std::vector<RealVector> states{pss.states.front()};
  RealVector x = states.front(), q, qd(sys.size(), 0.0);
  sys.evalDense(x, 0.0, nullptr, &q, nullptr, nullptr, {});
  TransientWorkspace ws;
  for (int k = 1; k <= stepsPerPeriod; ++k) {
    ASSERT_TRUE(integrateStep(sys, topt.method, true, h * (k - 1), h, x, q,
                              qd, nullptr, topt, ws));
    times.push_back(h * k);
    states.push_back(x);
  }
  EXPECT_LT(oracle::beTrajectoryDistance(sys, times, states), kOrbitTol);
  ASSERT_EQ(pss.dxdT.size(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(pss.dxdT[i], (x[i] - pss.states.back()[i]) / dT,
                2.0 * kOrbitTol / dT)
        << "unknown " << i;
  }
}

TEST(PssAutonomousGolden, SmallRingMatchesDenseOracle) {
  // 7 unknowns, the paper ring, shot from the transient warmup state.
  RingGolden ring(5, 30e-9, 10e-12);
  expectAutonomousMatchesDenseOracle(ring, ring.warm.periodEstimate,
                                     ring.warm.state, 300);
}

TEST(PssAutonomousGolden, LargeRingMatchesDenseOracle) {
  // 63 stages = 65 unknowns. Shoot once from the warm-up to land on the
  // orbit, then check the solve seeded from it. The warm-up steps at 16 ps,
  // near the 180-step grid's 15.8 ps: a 20 ps warm-up settles on an orbit
  // that grid does not reproduce, and plain shooting from it stalled (the
  // warm state carried a single circulating wave either way).
  RingGolden ring(63, 100e-9, 16e-12);
  const PssResult seed = solvePssAutonomous(
      *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
      ring.warm.state, pssOptions(180));
  EXPECT_LE(seed.shootingIterations, 10);
  expectAutonomousMatchesDenseOracle(ring, seed.period, seed.states[0], 180);
}

TEST(PssAutonomousGolden, ShootingConvergesFastOnRingOscillator) {
  // Regression fixture for the FD period-derivative step: with the step at
  // 1e-7*T the bordered Jacobian drowned in inner-Newton noise and
  // shooting limped to ~58 iterations; at 1e-4*T it converges in ~14. Pin
  // a hard ceiling so the fragility cannot silently return.
  RingGolden ring(5, 30e-9, 10e-12);
  const PssResult pss = solvePssAutonomous(
      *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
      ring.warm.state, pssOptions(300));
  EXPECT_LE(pss.shootingIterations, 20);
}

// ------------------------------------------- the converged shooting orbit

// Shooting keeps every iteration's trajectory and packs the converged
// integration as the stored orbit: no period is integrated after
// convergence, only the iterations that did not close sweep a monodromy,
// and the stored trajectory, its monodromy and dx/dT are exactly what a
// replay from the orbit's start point computes.

TEST(PssOrbit, DrivenCountsOnlyShootingIntegrations) {
  // Half-wave rectifier shot from its DC point: a few shooting iterations.
  Netlist nl;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add<VSource>("V1", in, kGround, SourceWave::sine(0.0, 1.0, 1e6), nl);
  nl.add<Diode>("D1", in, out, DiodeModel{}, nl);
  nl.add<Resistor>("RL", out, kGround, 10e3, nl);
  nl.add<Capacitor>("CL", out, kGround, 100e-12, nl);
  const MnaSystem sys(nl);
  PssOptions opt = pssOptions(100);
  opt.warmupCycles = 0;
  const PssResult res = solvePssDriven(sys, 1e-6, opt);
  EXPECT_GT(res.shootingIterations, 1);
  const auto steps = static_cast<uint64_t>(opt.stepsPerPeriod);
  const auto sweeps = static_cast<uint64_t>(res.shootingIterations - 1);
  EXPECT_EQ(res.stats.steps,
            static_cast<uint64_t>(res.shootingIterations) * steps);
  // Every Newton iteration factors and solves one column; each iteration
  // that did not close sweeps n columns through M step factors, and the
  // converged one sweeps nothing.
  EXPECT_EQ(res.stats.solves - res.stats.newtonIterations,
            sweeps * sys.size() * steps);
  EXPECT_EQ(res.stats.totalFactorizations() - res.stats.newtonIterations,
            sweeps * steps);

  // The stored end state is the converged integration's, and the sweep
  // over the stored orbit is the sweep over that integration replayed.
  PssWorkspace ws;
  RealVector x = res.states.front();
  const RealMatrix phi =
      integrateMonodromy(sys, x, 0.0, 1e-6, opt.stepsPerPeriod, opt, ws);
  EXPECT_EQ(x, res.states.back());
  const RealMatrix stored = orbitMonodromy(res);
  ASSERT_EQ(phi.rows(), stored.rows());
  for (size_t i = 0; i < phi.rows(); ++i) {
    for (size_t j = 0; j < phi.cols(); ++j) {
      EXPECT_EQ(phi(i, j), stored(i, j)) << i << "," << j;
    }
  }
}

TEST(PssOrbit, WideChainShootsFromDcInOneIteration) {
  // The 16-stage, 4-row chain (68 unknowns) returns to its DC
  // point within one period: shooting from there converges on its first
  // integration, no warm-up period is integrated, and no monodromy is
  // swept — the solve's triangular solves are its Newton iterations' one
  // column each (sweeping the converged period would add 68 x 400).
  ChainFixture ckt(4, 16);
  const RealVector dc = solveDc(*ckt.sys, {}).x;
  TelemetryRegistry reg(1);
  TelemetryScope scope(reg, 0);
  const PssResult res = solvePssDriven(*ckt.sys, ckt.period, {}, &dc);
  EXPECT_EQ(res.shootingIterations, 1);
  EXPECT_EQ(res.stats.steps, 400u);
  EXPECT_EQ(reg.counterTotal(Counter::kStepsAccepted), 400u);
  EXPECT_EQ(res.stats.solves, res.stats.newtonIterations);
  EXPECT_EQ(reg.counterTotal(Counter::kSolveColumns),
            res.stats.newtonIterations);
}

TEST(PssOrbit, RingDxdTMatchesPeriodReplay) {
  RingGolden ring(5, 30e-9, 10e-12);
  const PssOptions opt = pssOptions(200);
  const PssResult res =
      solvePssAutonomous(*ring.sys, ring.warm.periodEstimate,
                         ring.warm.phaseIndex, ring.warm.state, opt);
  PssWorkspace ws;
  RealVector xBase = res.states.front();
  integratePeriod(*ring.sys, xBase, 0.0, res.period, opt.stepsPerPeriod, ws);
  EXPECT_EQ(xBase, res.states.back());
  const Real dT = 1e-4 * res.period;
  RealVector xT = res.states.front();
  integratePeriod(*ring.sys, xT, 0.0, res.period + dT, opt.stepsPerPeriod,
                  ws);
  ASSERT_EQ(res.dxdT.size(), xT.size());
  for (size_t i = 0; i < xT.size(); ++i) {
    EXPECT_EQ(res.dxdT[i], (xT[i] - xBase[i]) / dT) << "unknown " << i;
  }
}

// ------------------------------------------------------------- LPTV

/// Every source's periodic injection envelope along the orbit at offset w,
///   b_{s,k} = -bf_k - (bq_k - bq_{k-1})/h - j w bq_k,   k = 1..M,
/// stored out[s][k] (k = 0 unused). Real T evaluates the w = 0 envelope
/// in the library's operation order, without the j w term.
template <class T>
std::vector<std::vector<std::vector<T>>> injectionEnvelopes(
    const MnaSystem& sys, const PssResult& pss,
    std::span<const InjectionSource> sources, Real omega) {
  const size_t n = sys.size();
  const size_t m = pss.stepCount();
  const Real h = pss.stepSize();
  std::vector<std::vector<std::vector<T>>> b(sources.size());
  for (size_t s = 0; s < sources.size(); ++s) {
    std::vector<RealVector> bf(m + 1), bq(m + 1);
    for (size_t k = 0; k <= m; ++k) {
      sys.evalInjection(sources[s], pss.states[k], pss.times[k], &bf[k],
                        &bq[k]);
    }
    b[s].assign(m + 1, std::vector<T>(n));
    for (size_t k = 1; k <= m; ++k) {
      for (size_t i = 0; i < n; ++i) {
        const Real v = -bf[k][i] - (bq[k][i] - bq[k - 1][i]) / h;
        if constexpr (std::is_same_v<T, Cplx>) {
          b[s][k][i] = v - Cplx(0.0, omega) * bq[k][i];
        } else {
          b[s][k][i] = v;
        }
      }
    }
  }
  return b;
}

/// The LPTV direct solve of a driven orbit at recursion frequency fOff
/// (Hz), rebuilt densely in complex arithmetic from its stored
/// linearizations: K_k = G_k + (1/h + j w) C_k and D_k = C_{k-1}/h from
/// toDense(), factored with DenseLU; B_k = K_k^{-1} D_k B_{k-1} and every
/// source's alpha_k = K_k^{-1}(D_k alpha_{k-1} + b_k) from B_0 = I,
/// alpha_0 = 0; the cycle closed by (I - B_M) p_0 = alpha_M; then the
/// envelopes p_k, k = 0..M-1. fOff = 0 is the system the library solves
/// on a driven orbit; fOff = 1 Hz is the paper's pseudo-noise probe.
LptvSolution denseLptvReference(const MnaSystem& sys, const PssResult& pss,
                                std::span<const InjectionSource> sources,
                                Real fOff) {
  EXPECT_FALSE(pss.autonomous) << "no phase-mode correction here";
  const size_t n = sys.size();
  const size_t m = pss.stepCount();
  const Cplx jw(0.0, 2.0 * std::numbers::pi_v<Real> * fOff);
  const Cplx coef = 1.0 / pss.stepSize() + jw;
  const auto b = injectionEnvelopes<Cplx>(sys, pss, sources, jw.imag());
  std::vector<DenseLU<Cplx>> kLu;
  std::vector<CplxMatrix> d;
  for (size_t k = 1; k <= m; ++k) {
    CplxMatrix c = toComplex(pss.cSpMats[k].toDense());
    c *= coef;
    kLu.emplace_back(toComplex(pss.gSpMats[k].toDense()) + c);
    d.push_back(toComplex(stepCoupling(pss, k)));
  }
  const auto step = [&](size_t k, const CplxVector& p,
                        const CplxVector& bk) {
    CplxVector v = matvec(d[k - 1], std::span<const Cplx>(p));
    for (size_t i = 0; i < n; ++i) v[i] += bk[i];
    return kLu[k - 1].solve(v);
  };

  CplxMatrix bMat = CplxMatrix::identity(n);
  std::vector<CplxVector> alpha(sources.size(), CplxVector(n, Cplx{}));
  for (size_t k = 1; k <= m; ++k) {
    bMat = kLu[k - 1].solveMatrix(matmul(d[k - 1], bMat));
    for (size_t s = 0; s < sources.size(); ++s) {
      alpha[s] = step(k, alpha[s], b[s][k]);
    }
  }
  const DenseLU<Cplx> closure(CplxMatrix::identity(n) - bMat);
  LptvSolution sol;
  sol.omega = jw.imag();
  sol.steps = m;
  sol.envelopes.resize(sources.size());
  for (size_t s = 0; s < sources.size(); ++s) {
    CplxVector p = closure.solve(alpha[s]);
    for (size_t k = 0; k < m; ++k) {
      if (k > 0) p = step(k, p, b[s][k]);
      sol.envelopes[s].push_back(p);
    }
  }
  return sol;
}

/// Largest |p| over every envelope entry of `sol`.
Real maxEnvelope(const LptvSolution& sol) {
  Real m = 0.0;
  for (const auto& env : sol.envelopes) {
    for (const CplxVector& p : env) {
      for (const Cplx& v : p) m = std::max(m, std::abs(v));
    }
  }
  return m;
}

// Direct envelopes at every grid point and unknown, their harmonics at the
// output, and the adjoint transfers all match the dense reference of the
// system the library solves on a driven orbit (w = 0) to kLptvTol relative
// to the largest envelope entry.
TEST(LptvGolden, TransfersMatchDenseOracleOnLargeChain) {
  ChainFixture ckt(8);
  ASSERT_EQ(ckt.sys->size(), 68u);
  const PssResult pss =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(80));
  const std::vector<InjectionSource> srcs(ckt.sources.begin(),
                                          ckt.sources.begin() + 12);
  const PnoiseAnalysis pn(*ckt.sys, pss, srcs);
  const LptvSolution& sol = pn.solution();
  const LptvSolution ref = denseLptvReference(*ckt.sys, pss, srcs, 0.0);
  const Real scale = maxEnvelope(ref);
  ASSERT_GT(scale, 0.0);

  ASSERT_EQ(sol.envelopes.size(), ref.envelopes.size());
  for (size_t s = 0; s < srcs.size(); ++s) {
    ASSERT_EQ(sol.envelopes[s].size(), ref.envelopes[s].size());
    Real worst = 0.0;
    for (size_t k = 0; k < ref.envelopes[s].size(); ++k) {
      for (size_t i = 0; i < ckt.sys->size(); ++i) {
        worst = std::max(worst, std::abs(sol.envelopes[s][k][i] -
                                          ref.envelopes[s][k][i]));
      }
    }
    EXPECT_LT(worst, kLptvTol * scale) << "source " << s;
    for (int harmonic : {0, 1, -1}) {
      EXPECT_LT(std::abs(sol.harmonic(s, ckt.outIdx, harmonic) -
                         ref.harmonic(s, ckt.outIdx, harmonic)),
                kLptvTol * scale)
          << "source " << s << " harmonic " << harmonic;
    }
  }
  // Adjoint path: transposed sparse solves against the dense direct
  // harmonics (the adjoint computes the same P_N of every source; N != 0
  // carries the real and imaginary Fourier weights as two columns).
  for (int harmonic : {0, 1}) {
    const CplxVector adj = pn.sideband(ckt.outIdx, harmonic).transfer;
    ASSERT_EQ(adj.size(), srcs.size());
    for (size_t s = 0; s < srcs.size(); ++s) {
      EXPECT_LT(std::abs(adj[s] - ref.harmonic(s, ckt.outIdx, harmonic)),
                kLptvTol * scale)
          << "source " << s << " harmonic " << harmonic;
    }
  }
}

// The link to the paper's 1 Hz probe. On a driven orbit the library solves
// the w = 0 system in real arithmetic: every envelope and every N = 0
// transfer has an exactly zero imaginary part, and the envelopes and the
// N = 0, +-1 transfers equal those of the real parts of the 1 Hz complex
// dense oracle to kLptvTol. What the real recursion drops, the oracle's
// imaginary part, is first order in w T: it stays below
// kImagPerWT * 2 pi f_off T of the largest envelope entry (measured 0.075
// on this chain, 1.9e-9 of the largest entry at w T = 2.5e-8).
TEST(LptvGolden, DrivenEnvelopesAreRealPartsOfOneHertzOracle) {
  constexpr Real kImagPerWT = 0.25;
  ChainFixture ckt(8);
  const PssResult pss =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(80));
  const std::vector<InjectionSource> srcs(ckt.sources.begin(),
                                          ckt.sources.begin() + 12);
  const PnoiseAnalysis pn(*ckt.sys, pss, srcs);
  const Real fOff = pn.offsetFreq();
  const LptvSolution& sol = pn.solution();
  EXPECT_EQ(sol.omega, 0.0);
  const LptvSolution oracle = denseLptvReference(*ckt.sys, pss, srcs, fOff);
  LptvSolution real = oracle;  // the oracle's real parts
  Real imag = 0.0;
  for (auto& env : real.envelopes) {
    for (CplxVector& p : env) {
      for (Cplx& v : p) {
        imag = std::max(imag, std::fabs(v.imag()));
        v = v.real();
      }
    }
  }
  const Real scale = maxEnvelope(real);
  ASSERT_GT(scale, 0.0);
  const Real wT = 2.0 * std::numbers::pi_v<Real> * fOff * pss.period;
  EXPECT_GT(imag, 0.0) << "the oracle probes at 1 Hz";
  EXPECT_LT(imag, kImagPerWT * wT * scale);

  const size_t n = ckt.sys->size();
  for (size_t s = 0; s < srcs.size(); ++s) {
    Real worst = 0.0;
    for (size_t k = 0; k < pss.stepCount(); ++k) {
      for (size_t i = 0; i < n; ++i) {
        const Cplx v = sol.envelopes[s][k][i];
        EXPECT_EQ(v.imag(), 0.0) << "s=" << s << " k=" << k << " i=" << i;
        worst = std::max(worst, std::abs(v - real.envelopes[s][k][i]));
      }
    }
    EXPECT_LT(worst, kLptvTol * scale) << "source " << s;
    EXPECT_EQ(sol.harmonic(s, ckt.outIdx, 0).imag(), 0.0) << "source " << s;
  }
  for (int harmonic : {0, 1, -1}) {
    const CplxVector adj = pn.sideband(ckt.outIdx, harmonic).transfer;
    for (size_t s = 0; s < srcs.size(); ++s) {
      const Cplx want = real.harmonic(s, ckt.outIdx, harmonic);
      EXPECT_LT(std::abs(sol.harmonic(s, ckt.outIdx, harmonic) - want),
                kLptvTol * scale)
          << "direct, source " << s << " harmonic " << harmonic;
      EXPECT_LT(std::abs(adj[s] - want), kLptvTol * scale)
          << "adjoint, source " << s << " harmonic " << harmonic;
      if (harmonic == 0) {
        EXPECT_EQ(adj[s].imag(), 0.0) << "source " << s;
      }
    }
  }
}

// ----------------------------------------------------- noise / sigma(t)

// The pnoise sidebands (adjoint transfers) and sigma(t) (sampled direct
// envelopes) match the same arithmetic on the dense reference envelopes of
// the w = 0 system, with the PSDs read at the 1 Hz offset: |P_N|^2 S(f)
// per source and sqrt(sum_s |p_k[out]|^2 S_s(f)) per grid point, to
// kLptvTol relative (squares: 2 kLptvTol).
TEST(PnoiseGolden, SidebandsAndStatisticalWaveformMatchDenseOracle) {
  ChainFixture ckt(8);
  const PssResult pss =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(80));
  const std::vector<InjectionSource> srcs(ckt.sources.begin(),
                                          ckt.sources.begin() + 12);
  const PnoiseAnalysis pn(*ckt.sys, pss, srcs, PnoiseOptions{});
  const Real f = pn.offsetFreq();  // where the sources' PSDs are read
  const LptvSolution ref = denseLptvReference(*ckt.sys, pss, srcs, 0.0);

  for (int harmonic : {0, 1}) {
    const PnoiseSideband sb = pn.sideband(ckt.outIdx, harmonic);
    ASSERT_EQ(sb.contribution.size(), srcs.size());
    Real total = 0.0;
    for (size_t s = 0; s < srcs.size(); ++s) {
      total += std::norm(ref.harmonic(s, ckt.outIdx, harmonic)) * srcs[s].psd(f);
    }
    ASSERT_GT(total, 0.0);
    EXPECT_NEAR(sb.totalPsd, total, 2.0 * kLptvTol * total);
    for (size_t s = 0; s < srcs.size(); ++s) {
      const Real want =
          std::norm(ref.harmonic(s, ckt.outIdx, harmonic)) * srcs[s].psd(f);
      EXPECT_NEAR(sb.contribution[s], want, 2.0 * kLptvTol * total)
          << "source " << s << " harmonic " << harmonic;
    }
  }

  const StatisticalWaveform sw = pn.statistical(ckt.outIdx);
  ASSERT_EQ(sw.sigma.size(), pss.stepCount());
  RealVector sigma(pss.stepCount());
  for (size_t k = 0; k < sigma.size(); ++k) {
    Real var = 0.0;
    for (size_t s = 0; s < srcs.size(); ++s) {
      var += std::norm(ref.envelopes[s][k][ckt.outIdx]) * srcs[s].psd(f);
    }
    sigma[k] = std::sqrt(var);
  }
  const Real scale = oracle::maxAbs(sigma);
  for (size_t k = 0; k < sigma.size(); ++k) {
    EXPECT_NEAR(sw.sigma[k], sigma[k], kLptvTol * scale) << "k=" << k;
    EXPECT_EQ(sw.nominal[k], pss.states[k][ckt.outIdx]) << "k=" << k;
  }
}

// ------------------------------------- parallel RF paths (pool handles)

/// EXPECT_EQ on every entry of two monodromies.
void expectMonodromyEqual(const RealMatrix& got, const RealMatrix& want,
                          const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      EXPECT_EQ(got(i, j), want(i, j)) << what << " (" << i << "," << j << ")";
    }
  }
}

// The monodromy sweep splits its n columns into one block per pool slot,
// each carried through all M steps against the shared step factors: every
// column's arithmetic involves only that column, so every jobs count gives
// the serial bits, in the shooting iterations that sweep and in
// orbitMonodromy alike.
constexpr size_t kJobCounts[] = {1, 2, 3, 4, 8};

TEST(PssParallelGolden, DrivenMonodromyMatchesSerialAcrossJobCounts) {
  // The 68-unknown chain shot from 50 mV off its DC point: the first
  // period does not close, so shooting sweeps (pooled) before converging.
  ChainFixture ckt(8);
  const PssOptions sopt = pssOptions(60);
  RealVector start = solveDc(*ckt.sys, {}).x;
  for (size_t i = 0; i < start.size(); i += 3) start[i] += 0.05;
  const PssResult serial = solvePssDriven(*ckt.sys, ckt.period, sopt, &start);
  ASSERT_GE(serial.shootingIterations, 2);
  const RealMatrix serialPhi = orbitMonodromy(serial);
  for (size_t jobs : kJobCounts) {
    const std::string label = "jobs=" + std::to_string(jobs);
    ThreadPool pool(jobs);
    PssOptions popt = sopt;
    popt.pool = &pool;
    const PssResult par = solvePssDriven(*ckt.sys, ckt.period, popt, &start);
    EXPECT_EQ(par.shootingIterations, serial.shootingIterations) << label;
    EXPECT_TRUE(par.states == serial.states) << label;
    EXPECT_TRUE(par.stats == serial.stats) << label;
    expectMonodromyEqual(orbitMonodromy(par, &pool), serialPhi, label);
  }
}

TEST(PssParallelGolden, AutonomousShootingMatchesSerialWithPool) {
  RingGolden ring(5, 30e-9, 10e-12);
  const PssOptions sopt = pssOptions(200);
  const PssResult serial =
      solvePssAutonomous(*ring.sys, ring.warm.periodEstimate,
                         ring.warm.phaseIndex, ring.warm.state, sopt);
  ASSERT_GE(serial.shootingIterations, 2);
  const RealMatrix serialPhi = orbitMonodromy(serial);
  for (size_t jobs : kJobCounts) {
    const std::string label = "jobs=" + std::to_string(jobs);
    ThreadPool pool(jobs);
    PssOptions popt = sopt;
    popt.pool = &pool;
    const PssResult par =
        solvePssAutonomous(*ring.sys, ring.warm.periodEstimate,
                           ring.warm.phaseIndex, ring.warm.state, popt);
    EXPECT_EQ(par.shootingIterations, serial.shootingIterations) << label;
    EXPECT_EQ(par.period, serial.period) << label;
    EXPECT_TRUE(par.states == serial.states) << label;
    expectMonodromyEqual(orbitMonodromy(par, &pool), serialPhi, label);
  }
}

TEST(PssParallelGolden, IntegrateMonodromyMatchesSerialOnWarmOrbit) {
  // The exposed kernel (what BM_MonodromyParallel times): one period
  // integrated from a warm state, then its monodromy swept, pool vs serial.
  RingGolden ring(5, 30e-9, 10e-12);
  PssOptions opt = pssOptions(200);
  PssWorkspace wsSerial;
  RealVector xSerial = ring.warm.state;
  const RealMatrix serial =
      integrateMonodromy(*ring.sys, xSerial, 0.0, ring.warm.periodEstimate,
                         opt.stepsPerPeriod, opt, wsSerial);
  for (size_t jobs : kJobCounts) {
    ThreadPool pool(jobs);
    opt.pool = &pool;
    PssWorkspace wsPar;
    RealVector xPar = ring.warm.state;
    const RealMatrix par =
        integrateMonodromy(*ring.sys, xPar, 0.0, ring.warm.periodEstimate,
                           opt.stepsPerPeriod, opt, wsPar);
    EXPECT_EQ(xPar, xSerial);  // the integration itself is serial
    expectMonodromyEqual(par, serial, "jobs=" + std::to_string(jobs));
  }
}

// EXPECT_EQ on every envelope entry, stopping at the first mismatch so a
// broken partition reports one line rather than thousands.
void expectEnvelopesEqual(const LptvSolution& got, const LptvSolution& want,
                          const std::string& what) {
  ASSERT_EQ(got.envelopes.size(), want.envelopes.size()) << what;
  for (size_t s = 0; s < want.envelopes.size(); ++s) {
    ASSERT_EQ(got.envelopes[s].size(), want.envelopes[s].size()) << what;
    for (size_t k = 0; k < want.envelopes[s].size(); ++k) {
      const CplxVector& g = got.envelopes[s][k];
      const CplxVector& w = want.envelopes[s][k];
      ASSERT_EQ(g.size(), w.size()) << what;
      for (size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(g[i], w[i]) << what << " s=" << s << " k=" << k
                              << " i=" << i;
        if (g[i] != w[i]) return;
      }
    }
  }
}

// Direct envelopes and adjoint transfers on pools of every jobs count must
// equal the pool-less solve exactly, and count the same triangular-solve
// columns: a partition only moves columns between slots.
void expectLptvExactAcrossJobs(const MnaSystem& sys, const PssResult& pss,
                               std::span<const InjectionSource> srcs,
                               int outIdx, const std::string& what) {
  const std::vector<InjectionSource> sources(srcs.begin(), srcs.end());
  TelemetryRegistry serialReg(1);
  LptvSolution sSol;
  CplxVector sAdj;
  {
    TelemetryScope scope(serialReg, 0);
    const PnoiseAnalysis serial(sys, pss, sources);
    sSol = serial.solution();
    sAdj = serial.sideband(outIdx, 1).transfer;
  }
  const uint64_t serialColumns =
      serialReg.counterTotal(Counter::kSolveColumns);
  ASSERT_GT(serialColumns, 0u) << what;
  for (size_t jobs : {1u, 2u, 3u, 4u, 8u}) {
    const std::string label = what + " jobs=" + std::to_string(jobs);
    TelemetryRegistry reg(jobs);
    ThreadPool pool(jobs);
    pool.attachTelemetry(&reg);
    TelemetryScope scope(reg, 0);
    const PnoiseAnalysis par(sys, pss, sources, PnoiseOptions{&pool});
    expectEnvelopesEqual(par.solution(), sSol, label);
    const CplxVector pAdj = par.sideband(outIdx, 1).transfer;
    ASSERT_EQ(pAdj.size(), sAdj.size()) << label;
    for (size_t s = 0; s < sAdj.size(); ++s) {
      EXPECT_EQ(pAdj[s], sAdj[s]) << label << " s=" << s;
    }
    EXPECT_EQ(reg.counterTotal(Counter::kSolveColumns), serialColumns)
        << label;
  }
}

TEST(LptvParallelGolden, ChainDirectAndAdjointExactAcrossJobCounts) {
  // The direct solve's closure sweep fans, window by window, the sources'
  // injections and then its n transposed columns across the pool, and
  // pass 2 its ns envelope chains; the adjoint fans its n + 2 columns
  // [V | u] through all M steps, then its per-source transfers. ns = 1
  // leaves the envelope pass one column
  // (SparseLU's nrhs == 1 solveInPlace fallback); ns = 3 leaves slots
  // idle at jobs 4 and 8.
  ChainFixture ckt(8);
  const PssResult pss = solvePssDriven(*ckt.sys, ckt.period, pssOptions(60));
  for (size_t ns : {1u, 3u, 8u}) {
    expectLptvExactAcrossJobs(
        *ckt.sys, pss, std::span<const InjectionSource>(ckt.sources.data(), ns),
        ckt.outIdx, "ns=" + std::to_string(ns));
  }
}

TEST(LptvParallelGolden, AutonomousRingExactAcrossJobCounts) {
  // The autonomous orbit takes the phase-corrected closure, which every
  // slot of the envelope pass solves on its own LU scratch.
  RingGolden ring(5, 30e-9, 10e-12);
  const auto sources = ring.sys->collectSources();
  const int outIdx = ring.nl.nodeIndex(ring.osc.stages[0]);
  const PssResult pss = solvePssAutonomous(
      *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
      ring.warm.state, pssOptions(200));
  ASSERT_TRUE(pss.autonomous);
  expectLptvExactAcrossJobs(*ring.sys, pss, sources, outIdx, "ring");
}

// The direct algorithm with every source carried forward, rebuilt from
// public pieces in the arithmetic a driven orbit solves in (real, w = 0): a
// dense store of every source's injection envelope b_{s,k}, serial
// per-source alpha and envelope chains on one-column solves, and the
// batched B_k recursion, all on the same step factorizations (the
// SparseLU chain that inherits step 1's symbolic analysis), closed by a
// plain DenseLU solve.
LptvSolution perSourceReference(const MnaSystem& sys, const PssResult& pss,
                                std::span<const InjectionSource> sources) {
  const size_t n = sys.size();
  const size_t m = pss.stepCount();
  const size_t ns = sources.size();
  const Real invH = 1.0 / pss.stepSize();

  std::vector<SparseLU<Real>> lus(m);
  MergedSparseAssembler<Real> kAsm;
  for (size_t k = 1; k <= m; ++k) {
    kAsm.assemble(pss.gSpMats[k], pss.cSpMats[k], invH);
    SparseLU<Real>& lu = lus[k - 1];
    if (k > 1) {
      lu = lus[k - 2];
      if (!lu.refactor(kAsm.matrix)) lu.factor(kAsm.matrix);
    } else {
      lu.factor(kAsm.matrix);
    }
  }
  // (C_{k-1} v) / h, in the library's operation order.
  const auto applyD = [&](size_t k, const RealVector& v) {
    RealVector out(n, 0.0);
    const RealSparse& c = pss.cSpMats[k - 1];
    const auto ptr = c.colPointers();
    const auto idx = c.rowIndices();
    const auto val = c.values();
    for (size_t j = 0; j < n; ++j) {
      if (v[j] == 0.0) continue;
      for (int p = ptr[j]; p < ptr[j + 1]; ++p) {
        out[idx[p]] += val[p] * invH * v[j];
      }
    }
    return out;
  };

  const auto b = injectionEnvelopes<Real>(sys, pss, sources, 0.0);
  RealMatrix bMat = RealMatrix::identity(n);
  std::vector<RealVector> alpha(ns, RealVector(n, 0.0));
  RealVector block(n * n);
  for (size_t k = 1; k <= m; ++k) {
    for (size_t s = 0; s < ns; ++s) {
      RealVector dv = applyD(k, alpha[s]);
      for (size_t i = 0; i < n; ++i) dv[i] += b[s][k][i];
      lus[k - 1].solveInPlace(dv);
      alpha[s] = dv;
    }
    for (size_t j = 0; j < n; ++j) {
      RealVector col(n);
      for (size_t i = 0; i < n; ++i) col[i] = bMat(i, j);
      const RealVector dcol = applyD(k, col);
      std::copy(dcol.begin(), dcol.end(), block.begin() + j * n);
    }
    lus[k - 1].solveManyInPlace(block, n);
    for (size_t j = 0; j < n; ++j) {
      for (size_t i = 0; i < n; ++i) bMat(i, j) = block[j * n + i];
    }
  }

  RealMatrix iMinusB = RealMatrix::identity(n);
  iMinusB -= bMat;
  const DenseLU<Real> closure(iMinusB);
  LptvSolution sol;
  sol.envelopes.assign(ns, std::vector<CplxVector>(m));
  const auto keep = [&](size_t s, size_t k, const RealVector& p) {
    sol.envelopes[s][k].assign(p.begin(), p.end());
  };
  for (size_t s = 0; s < ns; ++s) {
    RealVector p = closure.solve(alpha[s]);
    keep(s, 0, p);
    for (size_t k = 1; k < m; ++k) {
      RealVector dv = applyD(k, p);
      for (size_t i = 0; i < n; ++i) dv[i] += b[s][k][i];
      lus[k - 1].solveInPlace(dv);
      p = dv;
      keep(s, k, p);
    }
  }
  return sol;
}

/// The largest gap between two solutions' envelope entries of one source,
/// over that source's largest entry in `want`, maximized over sources.
Real worstSourceGap(const LptvSolution& got, const LptvSolution& want) {
  EXPECT_EQ(got.envelopes.size(), want.envelopes.size());
  Real worst = 0.0;
  for (size_t s = 0; s < want.envelopes.size(); ++s) {
    EXPECT_EQ(got.envelopes[s].size(), want.envelopes[s].size());
    Real scale = 0.0, gap = 0.0;
    for (size_t k = 0; k < want.envelopes[s].size(); ++k) {
      const CplxVector& g = got.envelopes[s][k];
      const CplxVector& w = want.envelopes[s][k];
      EXPECT_EQ(g.size(), w.size());
      for (size_t i = 0; i < w.size(); ++i) {
        scale = std::max(scale, std::abs(w[i]));
        gap = std::max(gap, std::abs(g[i] - w[i]));
      }
    }
    worst = std::max(worst, scale > 0.0 ? gap / scale : gap);
  }
  return worst;
}

// The library's direct solve against the algorithm that carries every
// source forward, with and without a pool (driven orbits: the real w = 0
// recursion, closed by the plain (I - B_M) solve the reference rebuilds).
// The chain's MOSFET sources inject current only; the RC deck's capacitor
// sources also inject charge, which runs the rolling bq_{k-1}. Pass 2 is
// the same arithmetic on both sides, but the library forms each alpha_M
// as sum_k Y_k^T b_k in its transposed closure sweep, not by the forward
// recursion, so p_0 and every envelope move by roundoff: measured at most
// 1.7e-16 (RC) and 2.2e-21 (chain) of the source's largest envelope entry.
// kPerSourceTol sits a factor of about 60 above the RC gap; an injection
// missed on one row or at one step moves a source by O(1).
TEST(LptvDirect, MatchesPerSourceReference) {
  constexpr Real kPerSourceTol = 1e-14;
  ChainFixture chain(8);
  ParsedCircuit rc = parseNetlistString(R"(two-pole network, charge mismatch
VIN in 0 PULSE(0 1 0.1u 10n 10n 0.4u 1u)
R1 in mid 10k sigma=200
C1 mid 0 4p sigma=0.2p
R2 mid out 10k sigma=200
C2 out 0 4p sigma=0.2p
.end
)");
  const MnaSystem rcSys(*rc.netlist);
  const auto rcSources = rcSys.collectSources();
  struct Case {
    const MnaSystem* sys;
    Real period;
    std::span<const InjectionSource> srcs;
    std::string name;
  };
  const Case cases[] = {
      {chain.sys.get(), chain.period, {chain.sources.data(), 12}, "chain"},
      {&rcSys, 1e-6, rcSources, "rc"}};
  for (const Case& c : cases) {
    const PssResult pss = solvePssDriven(*c.sys, c.period, pssOptions(60));
    ASSERT_FALSE(pss.autonomous);
    const LptvSolution want = perSourceReference(*c.sys, pss, c.srcs);
    const std::vector<InjectionSource> srcs(c.srcs.begin(), c.srcs.end());
    const LptvSolution serial = PnoiseAnalysis(*c.sys, pss, srcs).solution();
    EXPECT_LE(worstSourceGap(serial, want), kPerSourceTol) << c.name;
    ThreadPool pool(4);
    expectEnvelopesEqual(
        PnoiseAnalysis(*c.sys, pss, srcs, PnoiseOptions{&pool}).solution(),
        serial, c.name + " jobs=4");
  }
}

// One edge readout on a fresh analysis (samples at {k0, k1}) costs one
// transposed sweep of the n closure columns down the period (n M solve
// columns; no source is carried through it), one DenseLU closure solve per
// source (ns), and the ns envelope chains of pass 2 up to k1 (ns k1), at
// every jobs count. Carrying every source's alpha forward instead would
// solve (n + ns) M closure columns.
TEST(LptvDirect, EdgeSamplesCostOneTransposedSweepOfNColumns) {
  ChainFixture chain(8);
  const PssResult pss = solvePssDriven(*chain.sys, chain.period,
                                       pssOptions(60));
  const size_t n = chain.sys->size();
  const size_t m = pss.stepCount();
  const size_t ns = chain.sources.size();
  const size_t k1 = m / 2 + 1;
  const size_t points[] = {k1 - 1, k1};
  for (size_t jobs : {1u, 4u}) {
    TelemetryRegistry reg(jobs);
    ThreadPool pool(jobs);
    pool.attachTelemetry(&reg);
    {
      TelemetryScope scope(reg, 0);
      const PnoiseAnalysis pn(*chain.sys, pss, chain.sources,
                              PnoiseOptions{&pool});
      pn.samples(chain.outIdx, points);
    }
    pool.attachTelemetry(nullptr);
    EXPECT_EQ(reg.counterTotal(Counter::kSolveColumns), n * m + ns + ns * k1)
        << "jobs=" << jobs << " n=" << n << " ns=" << ns << " M=" << m;
  }
}

// --------------------------------------------- sampled direct readouts

/// perfbench's traced edge readout (its edgeDelaySigma), before the sum of
/// squares: the first crossing of `level` in `direction` on the nominal
/// waveform, and every source's scaled delay sensitivity read from the
/// stored envelopes at the two grid points around it.
struct EnvelopeEdge {
  size_t k0 = 0, k1 = 0;
  RealVector scaled;
};
EnvelopeEdge edgeFromEnvelopes(const PnoiseAnalysis& pn, int out, Real level,
                               int direction) {
  const PssResult& ps = pn.pss();
  const size_t m = ps.stepCount();
  const RealVector w = ps.waveform(out);
  int found = -1;
  Real frac = 0.0;
  for (size_t k = 0; k < m && found < 0; ++k) {
    const Real y0 = w[k];
    const Real y1 = w[(k + 1) % m];
    const bool rising = y0 < level && y1 >= level;
    const bool falling = y0 > level && y1 <= level;
    if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
      found = static_cast<int>(k);
      frac = (level - y0) / (y1 - y0);
    }
  }
  EnvelopeEdge e;
  if (found < 0) return e;
  e.k0 = static_cast<size_t>(found);
  e.k1 = (e.k0 + 1) % m;
  const Real slope = (w[e.k1] - w[e.k0]) / ps.stepSize();
  const LptvSolution& sol = pn.solution();
  for (size_t i = 0; i < pn.sources().size(); ++i) {
    const Cplx p0 = sol.envelopes[i][e.k0][out];
    const Cplx p1 = sol.envelopes[i][e.k1][out];
    const Real dv = ((1.0 - frac) * p0 + frac * p1).real();
    e.scaled.push_back(-dv / slope *
                       std::sqrt(pn.sources()[i].psd(pn.offsetFreq())));
  }
  return e;
}

/// The contract the traced perfbench split relies on, for the edge pair
/// (outA, outB): the wrapper's sampled edge readouts and sigma(t) equal the
/// arithmetic on solution()'s stored envelopes bit for bit, and the second
/// edge readout runs only its own truncated pass 2 — one batched solve of
/// ns columns per grid step up to its crossing — so the closure sweep ran
/// once for both.
void expectSampledReadoutsMatchEnvelopes(const MnaSystem& sys,
                                         MismatchAnalysisOptions opt,
                                         Real period, int outA, int outB,
                                         Real level, int direction,
                                         ThreadPool* pool,
                                         const std::string& what) {
  opt.pss.pool = pool;
  opt.pnoise.pool = pool;
  TransientMismatchAnalysis an(sys, opt);
  an.runDriven(period);
  TelemetryRegistry reg(pool ? pool->jobCount() : 1);
  if (pool) pool->attachTelemetry(&reg);
  VariationResult a, b;
  uint64_t secondColumns = 0;
  {
    TelemetryScope scope(reg, 0);
    a = an.edgeDelayVariation(outA, level, direction);
    const uint64_t before = reg.counterTotal(Counter::kSolveColumns);
    b = an.edgeDelayVariation(outB, level, direction);
    secondColumns = reg.counterTotal(Counter::kSolveColumns) - before;
  }
  if (pool) pool->attachTelemetry(nullptr);

  const PnoiseAnalysis& pn = an.pnoise();
  const size_t ns = pn.sources().size();
  const EnvelopeEdge ea = edgeFromEnvelopes(pn, outA, level, direction);
  const EnvelopeEdge eb = edgeFromEnvelopes(pn, outB, level, direction);
  ASSERT_EQ(a.scaledSens.size(), ns) << what;
  ASSERT_EQ(ea.scaled.size(), ns) << what;
  ASSERT_EQ(eb.scaled.size(), ns) << what;
  for (size_t i = 0; i < ns; ++i) {
    EXPECT_EQ(a.scaledSens[i], ea.scaled[i]) << what << " A source " << i;
    EXPECT_EQ(b.scaledSens[i], eb.scaled[i]) << what << " B source " << i;
  }
  EXPECT_EQ(secondColumns, ns * std::max(eb.k0, eb.k1)) << what;

  const StatisticalWaveform sw = an.statistical(outA);
  const LptvSolution& sol = pn.solution();
  ASSERT_EQ(sw.sigma.size(), sol.steps) << what;
  for (size_t k = 0; k < sol.steps; ++k) {
    Real var = 0.0;
    for (size_t s = 0; s < ns; ++s) {
      var += std::norm(sol.envelopes[s][k][outA]) *
             pn.sources()[s].psd(pn.offsetFreq());
    }
    EXPECT_EQ(sw.sigma[k], std::sqrt(var)) << what << " k=" << k;
  }
}

TEST(LptvSamplePath, LogicPathEdgesMatchStoredEnvelopes) {
  // The Table I pair on the dense 800-step orbit.
  Netlist nl;
  const auto kit = ProcessKit::cmos130();
  const auto lp = buildLogicPath(nl, kit, {});
  MnaSystem sys(nl);
  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 800;
  expectSampledReadoutsMatchEnvelopes(sys, opt, lp.period,
                                      nl.nodeIndex(lp.outA),
                                      nl.nodeIndex(lp.outB), kit.vdd / 2, -1,
                                      nullptr, "logic path");
}

TEST(LptvSamplePath, SparseChainEdgesMatchStoredEnvelopes) {
  // The 4-row, 16-stage chain (68 unknowns, 256 sources) on the sparse
  // orbit: the last taps of rows 1 and 2, serial and on a 4-slot pool.
  Netlist nl;
  const auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 16;
  copt.rows = 4;
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);
  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 200;
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    expectSampledReadoutsMatchEnvelopes(
        sys, opt, copt.period, nl.nodeIndex("chr116"), nl.nodeIndex("chr216"),
        kit.vdd / 2, +1, p, p ? "chain jobs=4" : "chain serial");
  }
}

// --------------------------------------------------------------- PPV

// The PPV backward sweep rebuilt with DenseLU on the stored orbit:
// z_k = J_k^{-T} y_k, y_{k-1} = D_k^T z_k from y_M = w_x (the library's
// bordered adjoint, itself a DenseLU solve). Every source's frequency
// sensitivity matches to kPpvTol relative.
TEST(PpvGolden, FrequencySensitivityMatchesDenseOracle) {
  RingGolden ring(5, 30e-9, 10e-12);
  const PssResult pss = solvePssAutonomous(
      *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
      ring.warm.state, pssOptions(300));
  const PpvResult ppv = computePpv(*ring.sys, pss);

  PpvResult ref;
  ref.wx = ppv.wx;
  ref.wT = ppv.wT;
  ref.z.assign(pss.stepCount() + 1, RealVector());
  RealVector y = ppv.wx;
  for (size_t k = pss.stepCount(); k >= 1; --k) {
    ref.z[k] = DenseLU<Real>(stepJacobian(pss, k)).solveTransposed(y);
    y = matvecT(stepCoupling(pss, k), std::span<const Real>(ref.z[k]));
  }

  const auto sources = ring.sys->collectSources();
  ASSERT_FALSE(sources.empty());
  for (const InjectionSource& src : sources) {
    const Real want = ref.frequencySensitivity(*ring.sys, pss, src);
    EXPECT_NEAR(ppv.frequencySensitivity(*ring.sys, pss, src), want,
                kPpvTol * std::fabs(want))
        << src.name;
  }
}

}  // namespace
}  // namespace psmn
