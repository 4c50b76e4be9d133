// Dense-oracle tests for the sparse Newton kernels: the engines
// (declared-pattern assembly, SparseLU refactorization, batched multi-RHS
// sensitivity solves) must return solutions of their discrete equations as
// DenseLU on evalDense matrices sees them (tests/dense_oracle.hpp), on the
// benchmark fixtures, to near machine precision. Newton tolerances are
// tightened to 1e-12 so the oracle threshold of 1e-10 is meaningful. Also
// pins evalSparse == evalDense bit for bit and AMD's fill against the
// static-degree order (counted in tests/fill_count.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "circuit/bjt_opamp.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/stdcell.hpp"
#include "dense_oracle.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"
#include "fill_count.hpp"

namespace psmn {
namespace {

constexpr Real kGoldenTol = 1e-10;

TranOptions tightOptions() {
  TranOptions opt;
  opt.method = IntegrationMethod::kBackwardEuler;
  opt.residualTol = 1e-12;
  opt.updateTol = 1e-12;
  return opt;
}

/// The ring's DC point with its stages kicked alternately by 0.25 V, the
/// start of an oscillating transient.
RealVector kickedRing(const MnaSystem& sys, const Netlist& nl,
                      const RingOscillatorCircuit& osc) {
  RealVector kick = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    kick[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.25 : -0.25);
  }
  return kick;
}

// ------------------------------------------------------------- assembly

/// MOSFETs of `nl` running with drain and source swapped at iterate x,
/// i.e. stamping through the second orientation of their declared slots.
size_t swappedMosfets(const Netlist& nl, const RealVector& x) {
  const Stamper at(x, 0.0, x.size());
  size_t swapped = 0;
  for (const auto& dev : nl.devices()) {
    if (const auto* m = dynamic_cast<const Mosfet*>(dev.get())) {
      swapped += m->opPoint(at).swapped ? 1 : 0;
    }
  }
  return swapped;
}

// Both evaluations run one stamping loop over their slot tables, so every
// f, q, G and C entry must agree bit for bit, at every iterate, with and
// without gshunt (the node-diagonal slots), on the four paper circuits and
// the 16x4 chain.
TEST(SparseMna, EvalSparseMatchesEvalDense) {
  const auto kit = ProcessKit::cmos130();
  const std::vector<std::pair<std::string, std::function<void(Netlist&)>>>
      circuits = {
          {"comparator testbench",
           [&](Netlist& nl) { buildComparatorTestbench(nl, kit); }},
          {"logic path", [&](Netlist& nl) { buildLogicPath(nl, kit); }},
          {"ring", [&](Netlist& nl) { buildRingOscillator(nl, kit); }},
          {"bjt follower",
           [](Netlist& nl) { buildBjtFollower(nl, BjtKit::bipolar5()); }},
          {"16x4 chain",
           [&](Netlist& nl) {
             InverterChainOptions copt;
             copt.stages = 16;
             copt.rows = 4;
             buildInverterChain(nl, kit, copt);
           }},
      };
  for (const auto& [name, build] : circuits) {
    SCOPED_TRACE(name);
    Netlist nl;
    build(nl);
    MnaSystem sys(nl);
    const size_t n = sys.size();
    // Three iterates: a ramp, its mirror, and an alternating one that puts
    // neighbouring nodes far apart (reversed-vds MOSFETs).
    std::vector<RealVector> points(3, RealVector(n));
    for (size_t i = 0; i < n; ++i) {
      points[0][i] = 0.3 + 0.05 * static_cast<Real>(i % 7);
      points[1][i] = 0.9 - 0.04 * static_cast<Real>(i % 5);
      points[2][i] = i % 2 == 0 ? 1.1 : 0.1;
    }
    size_t swapped = 0;
    for (const auto& x : points) swapped += swappedMosfets(nl, x);
    if (name != "bjt follower") {
      EXPECT_GT(swapped, 0u);
    }

    RealVector fd, qd, fs, qs;
    RealMatrix g, c;
    RealSparse gsp, csp;
    size_t nnzG = 0;
    for (size_t p = 0; p < points.size(); ++p) {
      for (Real gshunt : {0.0, 1e-6}) {
        MnaSystem::EvalOptions eopt;
        eopt.gshunt = gshunt;
        const Real t = 0.7e-9 * static_cast<Real>(p + 1);
        sys.evalDense(points[p], t, &fd, &qd, &g, &c, eopt);
        sys.evalSparse(points[p], t, &fs, &qs, &gsp, &csp, eopt);
        // The pattern is the system's own, frozen at construction.
        if (nnzG == 0) nnzG = gsp.nonZeros();
        EXPECT_EQ(gsp.nonZeros(), nnzG);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(fs[i], fd[i]) << "f[" << i << "] point " << p;
          EXPECT_EQ(qs[i], qd[i]) << "q[" << i << "] point " << p;
        }
        const RealMatrix gs = gsp.toDense(), cs = csp.toDense();
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = 0; j < n; ++j) {
            EXPECT_EQ(gs(i, j), g(i, j))
                << "G(" << i << "," << j << ") point " << p;
            EXPECT_EQ(cs(i, j), c(i, j))
                << "C(" << i << "," << j << ") point " << p;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------- DC

// The DC point satisfies the dense Newton equation: one DenseLU correction
// on evalDense's f and G moves it by far less than kGoldenTol (the solve
// stops at updateTol 1e-12; measured 9e-17 on this chain).
TEST(SparseDc, OperatingPointMatchesDenseOracle) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  buildInverterChain(nl, kit, {});
  MnaSystem sys(nl);
  DcOptions opt;
  opt.residualTol = 1e-12;
  opt.updateTol = 1e-12;
  const DcResult dc = solveDc(sys, opt);
  EXPECT_LT(oracle::dcDistance(sys, dc.x), kGoldenTol);
}

// -------------------------------------------------------------- transient

// Every backward-Euler step of a run lands within kGoldenTol of the exact
// solution of its discrete equation, by one DenseLU Newton correction of
// the evalDense residual. Measured: 8e-13 on both fixtures, because the
// oracle takes q_{k-1} at the accepted state and the kernel at its last
// Newton iterate, within updateTol 1e-12 of it.
TEST(SparseTransient, InverterChainMatchesDenseOracle) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 12;
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);

  const TransientResult tr = runTransient(sys, 0.0, 2e-9, 5e-12, tightOptions());
  ASSERT_EQ(tr.times.size(), 401u);
  EXPECT_LT(oracle::dcDistance(sys, tr.states.front()), kGoldenTol);
  EXPECT_LT(oracle::beTrajectoryDistance(sys, tr.times, tr.states), kGoldenTol);
}

TEST(SparseTransient, RingOscillatorMatchesDenseOracle) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  const RealVector kick = kickedRing(sys, nl, osc);

  TranOptions opt = tightOptions();
  opt.initialState = &kick;
  const TransientResult tr = runTransient(sys, 0.0, 1e-9, 5e-12, opt);
  ASSERT_EQ(tr.times.size(), 201u);
  EXPECT_EQ(tr.states.front(), kick);
  EXPECT_LT(oracle::beTrajectoryDistance(sys, tr.times, tr.states), kGoldenTol);
}

// A trapezoidal run does not return the charge state it integrates (qd),
// so its discrete equations cannot be rebuilt from the returned
// trajectory. Step integrateStep here instead, with varying step sizes
// (a BE start, growth to 4 dt, halvings), and
// check every accepted step against dense references: the assembled
// J = G + a*C equals G and C as stamped (exactly: 0 + g + a*c on both
// sides), SparseLU on J solves like DenseLU on J.toDense() (1e-12
// relative: two LU factorizations of a well-conditioned J), and the step
// lands within kGoldenTol of the solution of its trapezoidal equation
// (measured 4e-16: here the oracle shares the kernel's charge history).
TEST(SparseTransient, TrapezoidalVaryingStepsMatchDenseOracle) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 10;
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);
  const size_t n = sys.size();

  TranOptions opt = tightOptions();
  opt.method = IntegrationMethod::kTrapezoidal;
  RealVector x = solveDc(sys, {}).x, q, qd(n, 0.0), rhsQ(n), b(n), bDense;
  sys.evalDense(x, 0.0, nullptr, &q, nullptr, nullptr, {});
  TransientWorkspace ws;
  const Real dt = 5e-12;
  const Real scales[] = {1.0, 1.5, 2.25, 3.375, 4.0, 4.0, 2.0, 1.0, 0.5,
                         0.25, 0.375, 0.5625, 0.84375, 1.265625, 1.8984375};
  Real t = 0.0;
  size_t steps = 0;
  for (int lap = 0; lap < 4; ++lap) {
    for (Real scale : scales) {
      const Real h = scale * dt;
      const bool be = steps == 0;
      const Real a = be ? 1.0 / h : 2.0 / h;
      for (size_t i = 0; i < n; ++i) {
        rhsQ[i] = be ? -q[i] / h : -2.0 * q[i] / h - qd[i];
      }
      ASSERT_TRUE(integrateStep(sys, opt.method, be, t, h, x, q, qd, nullptr,
                                opt, ws));
      t += h;
      ++steps;
      SCOPED_TRACE("step " + std::to_string(steps));

      RealMatrix aC = ws.csp.toDense();
      aC *= a;
      const RealMatrix j = ws.jac.matrix.toDense();
      EXPECT_EQ(j, ws.gsp.toDense() + aC);

      for (size_t i = 0; i < n; ++i) b[i] = 1.0 + 0.01 * static_cast<Real>(i);
      bDense = b;
      ws.slu.solveInPlace(b);
      DenseLU<Real>(j).solveInPlace(bDense);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(b[i], bDense[i], 1e-12 * oracle::maxAbs(bDense)) << i;
      }

      EXPECT_LT(oracle::stepDistance(sys, x, t, a, rhsQ), kGoldenTol);
    }
  }
  EXPECT_EQ(steps, 60u);
}

// ------------------------------------------------------------ sensitivity

/// Largest distance, relative to max(1, |s|), of a transient-sensitivity
/// run from the dense solution of its discrete equations (each source
/// separately, by one DenseLU correction on evalDense matrices):
///   k = 0 (from DC):  G_0 s_0 = -bf_0,
///   k >= 1:  (G_k + C_k/h) s_k = (C_{k-1}/h) s_{k-1} - bf_k
///                                 - (bq_k - bq_{k-1})/h.
Real sensitivityDistance(const MnaSystem& sys,
                         const TransientSensitivityResult& res,
                         std::span<const InjectionSource> sources,
                         bool fromDc) {
  const size_t n = sys.size();
  Real worst = 0.0;
  RealVector bf, bq, bqPrev, r(n);
  RealMatrix g, c, cPrev;
  for (size_t k = 0; k < res.times.size(); ++k) {
    sys.evalDense(res.states[k], res.times[k], nullptr, nullptr, &g, &c, {});
    if (k == 0 && !fromDc) {
      cPrev = c;
      continue;
    }
    const Real invH = k == 0 ? 0.0 : 1.0 / (res.times[k] - res.times[k - 1]);
    RealMatrix j = g;
    for (size_t i = 0; i < n; ++i) {
      for (size_t jj = 0; jj < n; ++jj) j(i, jj) += invH * c(i, jj);
    }
    const DenseLU<Real> lu(j);
    for (size_t s = 0; s < sources.size(); ++s) {
      const RealVector& sk = res.sens[s][k];
      sys.evalInjection(sources[s], res.states[k], res.times[k], &bf, &bq);
      r = matvec(j, std::span<const Real>(sk));
      for (size_t i = 0; i < n; ++i) r[i] += bf[i];
      if (k > 0) {
        const RealVector cs =
            matvec(cPrev, std::span<const Real>(res.sens[s][k - 1]));
        sys.evalInjection(sources[s], res.states[k - 1], res.times[k - 1],
                          nullptr, &bqPrev);
        for (size_t i = 0; i < n; ++i) {
          r[i] += (bq[i] - bqPrev[i] - cs[i]) * invH;
        }
      }
      lu.solveInPlace(r);
      worst = std::max(worst, oracle::maxAbs(r) /
                                  std::max(1.0, oracle::maxAbs(sk)));
    }
    cPrev = c;
  }
  return worst;
}

// The states obey the BE oracle and every source's sensitivity waveform
// obeys its discrete recursion to kGoldenTol relative. The recursion reuses
// the Newton kernel's factored Jacobian, evaluated within updateTol 1e-12
// of the accepted state; measured 4e-13 on the chain, 8e-14 on the ring.
TEST(SparseSensitivity, InverterChainMatchesDenseOracle) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 10;
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);
  const auto sources = sys.collectSources();
  ASSERT_GT(sources.size(), 10u);  // two mismatch params per MOSFET

  const TransientSensitivityResult res = runTransientSensitivity(
      sys, 0.0, 1.5e-9, 5e-12, sources, tightOptions());
  ASSERT_EQ(res.times.size(), 301u);
  EXPECT_LT(oracle::dcDistance(sys, res.states.front()), kGoldenTol);
  EXPECT_LT(oracle::beTrajectoryDistance(sys, res.times, res.states),
            kGoldenTol);
  EXPECT_LT(sensitivityDistance(sys, res, sources, true), kGoldenTol);
  // The shared-Jacobian recursion must not add factorizations beyond the
  // Newton kernel's own (plus the initial DC-sensitivity factor).
  EXPECT_LE(res.stats.totalFactorizations(),
            res.times.size() * 10);  // sanity ceiling, not a perf claim
}

TEST(SparseSensitivity, RingOscillatorMatchesDenseOracle) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  const auto sources = sys.collectSources();
  const RealVector kick = kickedRing(sys, nl, osc);

  TranOptions opt = tightOptions();
  opt.initialState = &kick;
  const TransientSensitivityResult res =
      runTransientSensitivity(sys, 0.0, 0.5e-9, 2e-12, sources, opt);
  ASSERT_EQ(res.times.size(), 251u);
  EXPECT_LT(oracle::beTrajectoryDistance(sys, res.times, res.states),
            kGoldenTol);
  // A UIC start has no DC sensitivity: s_0 = 0.
  for (const auto& s : res.sens) EXPECT_EQ(oracle::maxAbs(s.front()), 0.0);
  EXPECT_LT(sensitivityDistance(sys, res, sources, false), kGoldenTol);
}

// ------------------------------------------------- fill-reducing ordering

// The transient Jacobian J = G + C/h of a system at a given state.
RealSparse transientJacobian(const MnaSystem& sys, const RealVector& x) {
  RealSparse gsp, csp;
  sys.evalSparse(x, 0.0, nullptr, nullptr, &gsp, &csp, {});
  MergedSparseAssembler<Real> jac;
  jac.assemble(gsp, csp, 1.0 / 5e-12);
  return jac.matrix;
}

// SparseLU's nnz(L+U) (AMD order) against the elimination-game fill of
// J + J^T under the static degree sort.
size_t amdFactorNnz(const RealSparse& j) {
  return SparseLU<Real>(j).factorNonZeros();
}
size_t degreeFill(const RealSparse& j) {
  return fill::eliminationFill(j, fill::degreeOrder(j));
}

// The acceptance fixture: 16 rows x 8 stages = 130+ unknowns. The chain
// grid's Jacobian admits a perfect (zero-fill) elimination, which AMD
// finds and the static degree sort does not.
TEST(SparseOrdering, AmdReducesFillOnInverterChain) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 8;
  copt.rows = 16;
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);
  ASSERT_GE(sys.size(), 129u);
  const RealSparse j = transientJacobian(sys, solveDc(sys, {}).x);
  EXPECT_LT(amdFactorNnz(j), degreeFill(j));
}

// 63-stage ring: the Jacobian graph is a wheel (cycle + vdd hub), whose
// minimum fill is exactly the n-3-edge cycle triangulation. The degree
// ordering already achieves it (438 nonzeros as SparseLU factors it, 439
// counted on the symmetrized J + J^T), so AMD can only match — the
// assertion is that it never does worse, on top of hitting the known
// optimum.
TEST(SparseOrdering, AmdMatchesOptimalFillOnRing) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  RingOscillatorOptions oopt;
  oopt.stages = 63;
  buildRingOscillator(nl, kit, oopt);
  MnaSystem sys(nl);
  const RealSparse j = transientJacobian(sys, RealVector(sys.size(), 0.6));
  EXPECT_LE(amdFactorNnz(j), degreeFill(j));
}

// Refactor-after-reorder: one workspace steps the ring for many steps;
// the AMD symbolic factorization from step 1 must be reused (numeric
// refactorizations, not fresh symbolic factors) and every step must keep
// passing the dense oracle.
TEST(SparseOrdering, WorkspaceReusesAmdSymbolicAcrossSteps) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  const RealVector kick = kickedRing(sys, nl, osc);

  const TranOptions sopt = tightOptions();

  const size_t n = sys.size();
  TransientWorkspace ws;
  RealVector x = kick, q, rhsQ(n);
  sys.evalDense(x, 0.0, nullptr, &q, nullptr, nullptr, {});
  RealVector qd(n, 0.0);
  const Real h = 5e-12;
  for (int k = 0; k < 100; ++k) {
    for (size_t i = 0; i < n; ++i) rhsQ[i] = -q[i] / h;
    ASSERT_TRUE(integrateStep(sys, sopt.method, k == 0, k * h, h, x, q, qd,
                              nullptr, sopt, ws));
    EXPECT_LT(oracle::stepDistance(sys, x, (k + 1) * h, 1.0 / h, rhsQ),
              kGoldenTol)
        << "step " << k;
  }
  EXPECT_EQ(ws.stats.factorizations, 1u);   // one AMD symbolic analysis
  EXPECT_GE(ws.stats.refactorizations, 99u);  // everything else rode the pattern
}

}  // namespace
}  // namespace psmn
