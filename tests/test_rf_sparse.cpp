// Golden dense-vs-sparse agreement tests for the RF engines: shooting PSS
// (driven and autonomous), the LPTV solver, periodic noise, and the
// time-domain statistical waveform must produce the same answers through
// the dense per-step factorizations and through the sparse
// TransientWorkspace path (declared pattern, SparseLU refactorization,
// batched monodromy/closure solves). The sparse path is the default at
// every size; fixtures span small (12-unknown) and large (68-unknown)
// circuits, with the dense path forced as the oracle.
//
// Also holds the regression fixture for the autonomous-shooting FD step:
// shooting on the ring oscillator must converge in a handful of
// iterations (the 1e-7*T finite-difference step once made it limp to the
// iteration cap), the exact checks that shooting stores its converged
// integration, the pool-vs-serial goldens of the RF fan-outs, and the
// exact check of the LPTV direct solve against the per-source algorithm.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "circuit/diode.hpp"
#include "circuit/parser.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "engine/dc.hpp"
#include "numeric/dense_lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "rf/lptv.hpp"
#include "rf/pnoise.hpp"
#include "rf/ppv.hpp"
#include "rf/pss.hpp"
#include "rf/timedomain_noise.hpp"
#include "runtime/thread_pool.hpp"
#include "util/telemetry.hpp"

namespace psmn {
namespace {

constexpr Real kGoldenTol = 1e-8;

PssOptions pssOptions(LinearSolverKind solver, int stepsPerPeriod) {
  PssOptions opt;
  opt.stepsPerPeriod = stepsPerPeriod;
  opt.solver = solver;
  return opt;
}

void expectStatesMatch(const PssResult& a, const PssResult& b, Real tol) {
  ASSERT_EQ(a.states.size(), b.states.size());
  for (size_t k = 0; k < a.states.size(); ++k) {
    for (size_t i = 0; i < a.states[k].size(); ++i) {
      EXPECT_NEAR(a.states[k][i], b.states[k][i], tol)
          << "k=" << k << " unknown " << i;
    }
  }
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
    sources = sys->collectSources(true, false);
  }
};

class PssDrivenGolden : public ::testing::TestWithParam<int> {};

TEST_P(PssDrivenGolden, DenseAndSparseAgree) {
  ChainFixture ckt(GetParam());
  const PssResult dense =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(LinearSolverKind::kDense, 100));
  const PssResult sparse =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(LinearSolverKind::kSparse, 100));

  EXPECT_FALSE(dense.sparseLinearizations);
  EXPECT_TRUE(sparse.sparseLinearizations);
  EXPECT_FALSE(dense.gMats.empty());
  EXPECT_FALSE(sparse.gSpMats.empty());
  expectStatesMatch(dense, sparse, kGoldenTol);
  // Same discrete problem, same Newton: the shooting trajectories match.
  EXPECT_EQ(dense.shootingIterations, sparse.shootingIterations);
  for (size_t i = 0; i < ckt.sys->size(); ++i) {
    for (size_t j = 0; j < ckt.sys->size(); ++j) {
      EXPECT_NEAR(sparse.monodromy(i, j), dense.monodromy(i, j), kGoldenTol);
    }
  }
  // Stored linearizations agree (sparse pattern holds every dense entry).
  const size_t kMid = dense.stepCount() / 2;
  EXPECT_LT(maxAbsDiff(sparse.gSpMats[kMid].toDense(), dense.gMats[kMid]),
            1e-9);
  EXPECT_LT(maxAbsDiff(sparse.cSpMats[kMid].toDense(), dense.cMats[kMid]),
            1e-9);
}

// Small (rows=1: 12 unknowns) and large (rows=8: 68 unknowns) chains.
INSTANTIATE_TEST_SUITE_P(ChainSizes, PssDrivenGolden, ::testing::Values(1, 8));

TEST(PssDrivenGolden, DefaultOptionsSolveSparseAtEverySize) {
  for (const auto& [rows, unknowns] : {std::pair{1, 12u}, std::pair{8, 68u}}) {
    ChainFixture ckt(rows);
    ASSERT_EQ(ckt.sys->size(), unknowns);
    PssOptions opt;
    opt.stepsPerPeriod = 60;
    const PssResult pss = solvePssDriven(*ckt.sys, ckt.period, opt);
    EXPECT_TRUE(pss.sparseLinearizations) << ckt.sys->size() << " unknowns";
    // No dense orbit storage on the sparse path.
    EXPECT_TRUE(pss.gMats.empty()) << ckt.sys->size() << " unknowns";
    EXPECT_FALSE(pss.gSpMats.empty()) << ckt.sys->size() << " unknowns";
  }
}

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

void expectAutonomousAgree(RingGolden& ring, Real periodGuess,
                           const RealVector& x0, int stepsPerPeriod,
                           Real periodTol, Real stateTol, Real dxdTTol) {
  const PssResult dense = solvePssAutonomous(
      *ring.sys, periodGuess, ring.warm.phaseIndex, x0,
      pssOptions(LinearSolverKind::kDense, stepsPerPeriod));
  const PssResult sparse = solvePssAutonomous(
      *ring.sys, periodGuess, ring.warm.phaseIndex, x0,
      pssOptions(LinearSolverKind::kSparse, stepsPerPeriod));

  // Period: the headline quantity of the oscillator analyses.
  EXPECT_NEAR(sparse.period, dense.period, periodTol * dense.period);
  expectStatesMatch(dense, sparse, stateTol);
  // dxdT is a finite difference over dT = 1e-4*T, so the per-backend
  // Newton noise floor is amplified by 1/dT: compare it to a tolerance
  // that respects the fixture's conditioning, not the golden tolerance.
  for (size_t i = 0; i < ring.sys->size(); ++i) {
    EXPECT_NEAR(sparse.dxdT[i], dense.dxdT[i],
                dxdTTol * std::max(1.0, std::fabs(dense.dxdT[i])));
  }
}

TEST(PssAutonomousGolden, SmallRingDenseAndSparseAgree) {
  // 7 unknowns, the paper ring. Both backends run the full shooting
  // sequence from the transient warmup state.
  RingGolden ring(5, 30e-9, 10e-12);
  expectAutonomousAgree(ring, ring.warm.periodEstimate, ring.warm.state, 300,
                        1e-8, 1e-7, 1e-6);
}

TEST(PssAutonomousGolden, LargeRingDenseAndSparseAgree) {
  // 63 stages = 65 unknowns. The alternating kick settles onto a
  // multi-wave rotating mode: (Phi - I) is badly conditioned and the
  // phase level is crossed once per wave, so distinct
  // far-from-orbit starts can legitimately lock onto different (time
  // shifted) solutions. For a meaningful golden comparison, shoot once
  // with the cheap sparse path to land on the orbit, then let both
  // backends solve the same seeded problem — every ingredient (period
  // integration, monodromy accumulation, bordered update, trajectory
  // pack) still runs per backend, and the answers must coincide almost to
  // machine precision.
  RingGolden ring(63, 400e-9, 20e-12);
  const PssResult seed = solvePssAutonomous(
      *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
      ring.warm.state, pssOptions(LinearSolverKind::kSparse, 180));
  EXPECT_TRUE(seed.sparseLinearizations);
  expectAutonomousAgree(ring, seed.period, seed.states[0], 180, 1e-10, 1e-9,
                        5e-3);
}

TEST(PssAutonomousGolden, ShootingConvergesFastOnRingOscillator) {
  // Regression fixture for the FD period-derivative step: with the step at
  // 1e-7*T the bordered Jacobian drowned in inner-Newton noise and
  // shooting limped to ~58 iterations; at 1e-4*T it converges in ~14. Pin
  // a hard ceiling so the fragility cannot silently return (on either
  // backend).
  RingGolden ring(5, 30e-9, 10e-12);
  for (LinearSolverKind solver :
       {LinearSolverKind::kDense, LinearSolverKind::kSparse}) {
    const PssResult pss = solvePssAutonomous(
        *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
        ring.warm.state, pssOptions(solver, 300));
    EXPECT_LE(pss.shootingIterations, 20)
        << (solver == LinearSolverKind::kDense ? "dense" : "sparse");
  }
}

// ------------------------------------------- the converged shooting orbit

// Shooting keeps every iteration's trajectory and packs the converged
// integration as the stored orbit: no period is integrated after
// convergence, and the stored monodromy, trajectory and dx/dT are exactly
// what a replay from the orbit's start point computes.

TEST(PssOrbit, DrivenCountsOnlyShootingIntegrations) {
  // Half-wave rectifier shot from its DC point: a few shooting iterations.
  for (LinearSolverKind solver :
       {LinearSolverKind::kDense, LinearSolverKind::kSparse}) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add<VSource>("V1", in, kGround, SourceWave::sine(0.0, 1.0, 1e6), nl);
    nl.add<Diode>("D1", in, out, DiodeModel{}, nl);
    nl.add<Resistor>("RL", out, kGround, 10e3, nl);
    nl.add<Capacitor>("CL", out, kGround, 100e-12, nl);
    const MnaSystem sys(nl);
    PssOptions opt = pssOptions(solver, 100);
    opt.warmupCycles = 0;
    const PssResult res = solvePssDriven(sys, 1e-6, opt);
    EXPECT_GT(res.shootingIterations, 1);
    EXPECT_EQ(res.stats.steps,
              static_cast<uint64_t>(res.shootingIterations) *
                  static_cast<uint64_t>(opt.stepsPerPeriod));

    // The stored monodromy and end state are the converged integration's.
    PssWorkspace ws;
    RealVector x = res.states.front();
    const RealMatrix phi =
        integrateMonodromy(sys, x, 0.0, 1e-6, opt.stepsPerPeriod, opt, ws);
    EXPECT_EQ(x, res.states.back());
    ASSERT_EQ(phi.rows(), res.monodromy.rows());
    for (size_t i = 0; i < phi.rows(); ++i) {
      for (size_t j = 0; j < phi.cols(); ++j) {
        EXPECT_EQ(phi(i, j), res.monodromy(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(PssOrbit, WideChainShootsFromDcInOneIteration) {
  // The 16-stage, 4-row chain (68 unknowns) returns to its DC
  // point within one period: shooting from there converges on its first
  // integration, and no warm-up period is integrated.
  ChainFixture ckt(4, 16);
  TelemetryRegistry reg(1);
  TelemetryScope scope(reg, 0);
  const PssResult res = solvePssDriven(*ckt.sys, ckt.period);
  EXPECT_TRUE(res.sparseLinearizations);
  EXPECT_EQ(res.shootingIterations, 1);
  EXPECT_EQ(res.stats.steps, 400u);
  EXPECT_EQ(reg.counterTotal(Counter::kStepsAccepted), 400u);
}

TEST(PssOrbit, RingDxdTMatchesPeriodReplay) {
  RingGolden ring(5, 30e-9, 10e-12);
  const PssOptions opt = pssOptions(LinearSolverKind::kDense, 200);
  const PssResult res =
      solvePssAutonomous(*ring.sys, ring.warm.periodEstimate,
                         ring.warm.phaseIndex, ring.warm.state, opt);
  PssWorkspace ws;
  RealVector xBase = res.states.front();
  integratePeriodInPlace(*ring.sys, xBase, 0.0, res.period,
                         opt.stepsPerPeriod, opt, ws);
  EXPECT_EQ(xBase, res.states.back());
  const Real dT = 1e-4 * res.period;
  RealVector xT = res.states.front();
  integratePeriodInPlace(*ring.sys, xT, 0.0, res.period + dT,
                         opt.stepsPerPeriod, opt, ws);
  ASSERT_EQ(res.dxdT.size(), xT.size());
  for (size_t i = 0; i < xT.size(); ++i) {
    EXPECT_EQ(res.dxdT[i], (xT[i] - xBase[i]) / dT) << "unknown " << i;
  }
}

// ------------------------------------------------------------- LPTV

TEST(LptvGolden, TransferAgreesAcrossBackendsOnLargeChain) {
  ChainFixture ckt(8);
  ASSERT_EQ(ckt.sys->size(), 68u);
  const PssResult dense =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(LinearSolverKind::kDense, 80));
  const PssResult sparse =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(LinearSolverKind::kSparse, 80));

  const std::vector<InjectionSource> srcs(ckt.sources.begin(),
                                          ckt.sources.begin() + 12);
  const Real fOff = 1.0;
  const LptvSolver denseSolver(*ckt.sys, dense, srcs, fOff);
  const LptvSolver sparseSolver(*ckt.sys, sparse, srcs, fOff);
  const LptvSolution dSol = denseSolver.solveDirect();
  const LptvSolution sSol = sparseSolver.solveDirect();
  for (size_t s = 0; s < srcs.size(); ++s) {
    for (int harmonic : {0, 1, -1}) {
      const Cplx d = dSol.harmonic(s, ckt.outIdx, harmonic);
      const Cplx sp = sSol.harmonic(s, ckt.outIdx, harmonic);
      EXPECT_LT(std::abs(sp - d), kGoldenTol + 1e-6 * std::abs(d))
          << "source " << s << " harmonic " << harmonic;
    }
  }
  // Adjoint path: sparse transposed solves against the dense adjoint.
  const CplxVector dAdj = denseSolver.solveAdjoint(ckt.outIdx, 0);
  const CplxVector sAdj = sparseSolver.solveAdjoint(ckt.outIdx, 0);
  for (size_t s = 0; s < srcs.size(); ++s) {
    EXPECT_LT(std::abs(sAdj[s] - dAdj[s]), kGoldenTol + 1e-6 * std::abs(dAdj[s]));
  }
  // And adjoint == direct within the sparse backend itself.
  for (size_t s = 0; s < srcs.size(); ++s) {
    const Cplx d = sSol.harmonic(s, ckt.outIdx, 0);
    EXPECT_LT(std::abs(sAdj[s] - d), 1e-9 + 1e-6 * std::abs(d));
  }
}

// ----------------------------------------------------- noise / sigma(t)

TEST(PnoiseGolden, SidebandPsdAndStatisticalWaveformAgree) {
  ChainFixture ckt(8);
  const PssResult dense =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(LinearSolverKind::kDense, 80));
  const PssResult sparse =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(LinearSolverKind::kSparse, 80));

  std::vector<InjectionSource> srcs(ckt.sources.begin(),
                                    ckt.sources.begin() + 12);
  PnoiseAnalysis pnDense(*ckt.sys, dense, srcs, PnoiseOptions{});
  PnoiseAnalysis pnSparse(*ckt.sys, sparse, srcs, PnoiseOptions{});

  for (int harmonic : {0, 1}) {
    const PnoiseSideband sbD = pnDense.sideband(ckt.outIdx, harmonic);
    const PnoiseSideband sbS = pnSparse.sideband(ckt.outIdx, harmonic);
    EXPECT_NEAR(sbS.totalPsd, sbD.totalPsd,
                kGoldenTol + 1e-6 * sbD.totalPsd);
    for (size_t s = 0; s < srcs.size(); ++s) {
      EXPECT_NEAR(sbS.contribution[s], sbD.contribution[s],
                  kGoldenTol + 1e-6 * sbD.contribution[s]);
    }
  }

  const StatisticalWaveform swD = statisticalWaveform(pnDense, ckt.outIdx);
  const StatisticalWaveform swS = statisticalWaveform(pnSparse, ckt.outIdx);
  ASSERT_EQ(swD.sigma.size(), swS.sigma.size());
  for (size_t k = 0; k < swD.sigma.size(); ++k) {
    EXPECT_NEAR(swS.sigma[k], swD.sigma[k], kGoldenTol + 1e-6 * swD.sigma[k]);
    EXPECT_NEAR(swS.nominal[k], swD.nominal[k], kGoldenTol);
  }
}

// ------------------------------------- parallel RF paths (pool handles)

constexpr Real kParallelTol = 1e-12;

TEST(PssParallelGolden, DrivenMonodromyMatchesSerialAcrossJobCounts) {
  // The parallel monodromy partitions the column block across pool slots
  // against the shared accepted-step factorization: each column's
  // assembly, solve, and write-back involve only that column, so the
  // whole shooting solve must match the serial path to the last bit —
  // asserted here at 1e-12 on both backends and several jobs counts.
  for (LinearSolverKind solver :
       {LinearSolverKind::kDense, LinearSolverKind::kSparse}) {
    ChainFixture ckt(8);
    const PssOptions sopt = pssOptions(solver, 60);
    const PssResult serial = solvePssDriven(*ckt.sys, ckt.period, sopt);
    for (size_t jobs : {2u, 4u}) {
      ThreadPool pool(jobs);
      PssOptions popt = sopt;
      popt.pool = &pool;
      const PssResult par = solvePssDriven(*ckt.sys, ckt.period, popt);
      EXPECT_EQ(par.shootingIterations, serial.shootingIterations);
      expectStatesMatch(serial, par, kParallelTol);
      for (size_t i = 0; i < ckt.sys->size(); ++i) {
        for (size_t j = 0; j < ckt.sys->size(); ++j) {
          EXPECT_NEAR(par.monodromy(i, j), serial.monodromy(i, j),
                      kParallelTol)
              << "jobs=" << jobs << " (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(PssParallelGolden, AutonomousShootingMatchesSerialWithPool) {
  RingGolden ring(5, 30e-9, 10e-12);
  for (LinearSolverKind solver :
       {LinearSolverKind::kDense, LinearSolverKind::kSparse}) {
    const PssOptions sopt = pssOptions(solver, 200);
    const PssResult serial =
        solvePssAutonomous(*ring.sys, ring.warm.periodEstimate,
                           ring.warm.phaseIndex, ring.warm.state, sopt);
    ThreadPool pool(4);
    PssOptions popt = sopt;
    popt.pool = &pool;
    const PssResult par =
        solvePssAutonomous(*ring.sys, ring.warm.periodEstimate,
                           ring.warm.phaseIndex, ring.warm.state, popt);
    EXPECT_EQ(par.shootingIterations, serial.shootingIterations);
    EXPECT_NEAR(par.period, serial.period, kParallelTol * serial.period);
    expectStatesMatch(serial, par, kParallelTol);
  }
}

TEST(PssParallelGolden, IntegrateMonodromyMatchesSerialOnWarmOrbit) {
  // The exposed kernel (what BM_MonodromyParallel times): one period of
  // monodromy accumulation from a warm state, pool vs serial.
  RingGolden ring(5, 30e-9, 10e-12);
  PssOptions opt = pssOptions(LinearSolverKind::kSparse, 200);
  PssWorkspace wsSerial;
  RealVector xSerial = ring.warm.state;
  const RealMatrix serial =
      integrateMonodromy(*ring.sys, xSerial, 0.0, ring.warm.periodEstimate,
                         opt.stepsPerPeriod, opt, wsSerial);
  ThreadPool pool(4);
  opt.pool = &pool;
  PssWorkspace wsPar;
  RealVector xPar = ring.warm.state;
  const RealMatrix par =
      integrateMonodromy(*ring.sys, xPar, 0.0, ring.warm.periodEstimate,
                         opt.stepsPerPeriod, opt, wsPar);
  for (size_t i = 0; i < ring.sys->size(); ++i) {
    EXPECT_EQ(xPar[i], xSerial[i]) << i;  // integration itself is serial
    for (size_t j = 0; j < ring.sys->size(); ++j) {
      EXPECT_NEAR(par(i, j), serial(i, j), kParallelTol);
    }
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
  const Real fOff = 1.0;
  const std::vector<InjectionSource> sources(srcs.begin(), srcs.end());
  TelemetryRegistry serialReg(1);
  LptvSolution sSol;
  CplxVector sAdj;
  {
    TelemetryScope scope(serialReg, 0);
    const LptvSolver serial(sys, pss, sources, fOff);
    sSol = serial.solveDirect();
    sAdj = serial.solveAdjoint(outIdx, 1);
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
    const LptvSolver par(sys, pss, sources, fOff, LptvOptions{&pool});
    expectEnvelopesEqual(par.solveDirect(), sSol, label);
    const CplxVector pAdj = par.solveAdjoint(outIdx, 1);
    ASSERT_EQ(pAdj.size(), sAdj.size()) << label;
    for (size_t s = 0; s < sAdj.size(); ++s) {
      EXPECT_EQ(pAdj[s], sAdj[s]) << label << " s=" << s;
    }
    EXPECT_EQ(reg.counterTotal(Counter::kSolveColumns), serialColumns)
        << label;
  }
}

TEST(LptvParallelGolden, ChainDirectAndAdjointExactAcrossJobCounts) {
  // The direct solve fans its n + ns recursion columns and then its ns
  // envelope chains across the pool; the adjoint fans its n + 1 columns
  // [V | u] through all M steps, then its per-source transfers. ns = 1
  // leaves the envelope pass one column
  // (SparseLU's nrhs == 1 solveInPlace fallback); ns = 3 leaves slots
  // idle at jobs 4 and 8.
  for (LinearSolverKind solver :
       {LinearSolverKind::kDense, LinearSolverKind::kSparse}) {
    ChainFixture ckt(8);
    const PssResult pss =
        solvePssDriven(*ckt.sys, ckt.period, pssOptions(solver, 60));
    for (size_t ns : {1u, 3u, 8u}) {
      expectLptvExactAcrossJobs(
          *ckt.sys, pss, std::span<const InjectionSource>(ckt.sources.data(), ns),
          ckt.outIdx,
          std::string(pss.sparseLinearizations ? "sparse" : "dense") +
              " ns=" + std::to_string(ns));
    }
  }
}

TEST(LptvParallelGolden, AutonomousRingExactAcrossJobCounts) {
  // The autonomous orbit takes the phase-corrected closure, which every
  // slot of the envelope pass solves on its own LU scratch.
  RingGolden ring(5, 30e-9, 10e-12);
  const auto sources = ring.sys->collectSources(true, false);
  const int outIdx = ring.nl.nodeIndex(ring.osc.stages[0]);
  for (LinearSolverKind solver :
       {LinearSolverKind::kDense, LinearSolverKind::kSparse}) {
    const PssResult pss = solvePssAutonomous(
        *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
        ring.warm.state, pssOptions(solver, 200));
    ASSERT_TRUE(pss.autonomous);
    expectLptvExactAcrossJobs(
        *ring.sys, pss, sources, outIdx,
        std::string(pss.sparseLinearizations ? "sparse" : "dense") + " ring");
  }
}

// The direct algorithm as it stood before the fused column recursion,
// rebuilt from public pieces: a dense store of every source's injection
// envelope b_{s,k}, serial per-source alpha and envelope chains on
// one-column solves, and the batched B_k recursion, all on the same step
// factorizations (the dense K_k, or the sparse chain that inherits step
// 1's symbolic analysis).
LptvSolution perSourceReference(const MnaSystem& sys, const PssResult& pss,
                                std::span<const InjectionSource> sources,
                                Real fOff) {
  const size_t n = sys.size();
  const size_t m = pss.stepCount();
  const size_t ns = sources.size();
  const Real h = pss.stepSize();
  const Real invH = 1.0 / h;
  const Cplx jw(0.0, 2.0 * std::numbers::pi_v<Real> * fOff);
  const Cplx coef = invH + jw;

  std::vector<DenseLU<Cplx>> denseK;
  std::vector<SparseLU<Cplx>> sparseK(pss.sparseLinearizations ? m : 0);
  if (!pss.sparseLinearizations) {
    for (size_t k = 1; k <= m; ++k) {
      CplxMatrix kk(n, n);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          kk(i, j) = pss.gMats[k](i, j) + coef * pss.cMats[k](i, j);
        }
      }
      denseK.emplace_back(kk);
    }
  } else {
    MergedSparseAssembler<Cplx> kAsm;
    bool symbolic = false;
    for (size_t k = 1; k <= m; ++k) {
      if (kAsm.assemble(pss.gSpMats[k], pss.cSpMats[k], coef)) symbolic = false;
      SparseLU<Cplx>& lu = sparseK[k - 1];
      if (symbolic) {
        lu = sparseK[k - 2];
        if (!lu.refactor(kAsm.matrix)) lu.factor(kAsm.matrix, 0.1, pss.ordering);
      } else {
        lu.factor(kAsm.matrix, 0.1, pss.ordering);
        symbolic = true;
      }
    }
  }
  const auto solve = [&](size_t k, CplxVector& b) {
    if (pss.sparseLinearizations) sparseK[k - 1].solveInPlace(b);
    else denseK[k - 1].solveInPlace(b);
  };
  const auto solveMany = [&](size_t k, CplxVector& b, size_t nrhs) {
    if (pss.sparseLinearizations) sparseK[k - 1].solveManyInPlace(b, nrhs);
    else denseK[k - 1].solveManyInPlace(b, nrhs);
  };
  // (C_{k-1} v) / h, in the library's per-backend operation order.
  const auto applyD = [&](size_t k, const CplxVector& v) {
    CplxVector out(n, Cplx{});
    if (pss.sparseLinearizations) {
      const RealSparse& c = pss.cSpMats[k - 1];
      const auto ptr = c.colPointers();
      const auto idx = c.rowIndices();
      const auto val = c.values();
      for (size_t j = 0; j < n; ++j) {
        if (v[j] == Cplx{}) continue;
        for (int p = ptr[j]; p < ptr[j + 1]; ++p) out[idx[p]] += val[p] * v[j];
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        Cplx acc{};
        for (size_t j = 0; j < n; ++j) acc += pss.cMats[k - 1](i, j) * v[j];
        out[i] = acc;
      }
    }
    for (auto& o : out) o *= invH;
    return out;
  };

  std::vector<std::vector<CplxVector>> b(ns);
  for (size_t s = 0; s < ns; ++s) {
    std::vector<RealVector> bf(m + 1), bq(m + 1);
    for (size_t k = 0; k <= m; ++k) {
      sys.evalInjection(sources[s], pss.states[k], pss.times[k], &bf[k],
                        &bq[k]);
    }
    b[s].assign(m + 1, CplxVector(n));
    for (size_t k = 1; k <= m; ++k) {
      for (size_t i = 0; i < n; ++i) {
        b[s][k][i] = -bf[k][i] - (bq[k][i] - bq[k - 1][i]) / h - jw * bq[k][i];
      }
    }
  }

  CplxMatrix bMat = CplxMatrix::identity(n);
  std::vector<CplxVector> alpha(ns, CplxVector(n, Cplx{}));
  CplxVector block(n * n);
  for (size_t k = 1; k <= m; ++k) {
    for (size_t s = 0; s < ns; ++s) {
      CplxVector dv = applyD(k, alpha[s]);
      for (size_t i = 0; i < n; ++i) dv[i] += b[s][k][i];
      solve(k, dv);
      alpha[s] = dv;
    }
    for (size_t j = 0; j < n; ++j) {
      CplxVector col(n);
      for (size_t i = 0; i < n; ++i) col[i] = bMat(i, j);
      const CplxVector dcol = applyD(k, col);
      std::copy(dcol.begin(), dcol.end(), block.begin() + j * n);
    }
    solveMany(k, block, n);
    for (size_t j = 0; j < n; ++j) {
      for (size_t i = 0; i < n; ++i) bMat(i, j) = block[j * n + i];
    }
  }

  CplxMatrix iMinusB = CplxMatrix::identity(n);
  iMinusB -= bMat;
  const DenseLU<Cplx> closure(iMinusB);
  LptvSolution sol;
  sol.envelopes.assign(ns, std::vector<CplxVector>(m));
  for (size_t s = 0; s < ns; ++s) {
    CplxVector p = closure.solve(alpha[s]);
    sol.envelopes[s][0] = p;
    for (size_t k = 1; k < m; ++k) {
      CplxVector dv = applyD(k, p);
      for (size_t i = 0; i < n; ++i) dv[i] += b[s][k][i];
      solve(k, dv);
      p = dv;
      sol.envelopes[s][k] = p;
    }
  }
  return sol;
}

TEST(LptvDirect, MatchesPerSourceReference) {
  // The fused recursion reorders nothing inside a column: streamed
  // injections, batched instead of one-column solves, and the closure on
  // slot scratch must reproduce the stored-envelope algorithm bit for bit,
  // with and without a pool, on both orbit backends (driven orbits: the
  // closure is the plain (I - B_M) solve the reference rebuilds). The
  // chain's MOSFET sources inject current only; the RC deck's capacitor
  // sources also inject charge, which runs the rolling bq_{k-1}.
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
  const auto rcSources = rcSys.collectSources(true, false);
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
    for (LinearSolverKind solver :
         {LinearSolverKind::kDense, LinearSolverKind::kSparse}) {
      const PssResult pss =
          solvePssDriven(*c.sys, c.period, pssOptions(solver, 60));
      ASSERT_FALSE(pss.autonomous);
      const LptvSolution want = perSourceReference(*c.sys, pss, c.srcs, 1.0);
      const std::string label =
          c.name + (pss.sparseLinearizations ? " sparse" : " dense");
      const std::vector<InjectionSource> srcs(c.srcs.begin(), c.srcs.end());
      expectEnvelopesEqual(LptvSolver(*c.sys, pss, srcs, 1.0).solveDirect(),
                           want, label + " no pool");
      ThreadPool pool(4);
      expectEnvelopesEqual(
          LptvSolver(*c.sys, pss, srcs, 1.0, LptvOptions{&pool}).solveDirect(),
          want, label + " jobs=4");
    }
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
/// ns columns per grid step up to its crossing — so pass 1 and the closure
/// ran once for both.
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

TEST(PpvGolden, FrequencySensitivityAgreesAcrossBackends) {
  RingGolden ring(5, 30e-9, 10e-12);
  const PssResult dense = solvePssAutonomous(
      *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
      ring.warm.state, pssOptions(LinearSolverKind::kDense, 300));
  const PssResult sparse = solvePssAutonomous(
      *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
      ring.warm.state, pssOptions(LinearSolverKind::kSparse, 300));
  const PpvResult ppvD = computePpv(*ring.sys, dense);
  const PpvResult ppvS = computePpv(*ring.sys, sparse);
  const auto sources = ring.sys->collectSources(true, false);
  for (size_t s = 0; s < std::min<size_t>(4, sources.size()); ++s) {
    const Real d = ppvD.frequencySensitivity(*ring.sys, dense, sources[s]);
    const Real sp = ppvS.frequencySensitivity(*ring.sys, sparse, sources[s]);
    EXPECT_NEAR(sp, d, 1e-6 * std::fabs(d) + 1e-9) << sources[s].name;
  }
}

}  // namespace
}  // namespace psmn
