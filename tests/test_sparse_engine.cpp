// Golden agreement tests for the sparse solver path: the sparse engines
// (declared-pattern assembly + SparseLU refactorization + batched multi-RHS
// sensitivity solves) must reproduce the dense path on the benchmark
// fixtures to near machine precision. Newton tolerances are tightened so
// both backends converge to the same discrete solution and the comparison
// threshold of 1e-10 is meaningful.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "circuit/bjt_opamp.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/stdcell.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"

namespace psmn {
namespace {

constexpr Real kGoldenTol = 1e-10;

TranOptions tightOptions(LinearSolverKind solver) {
  TranOptions opt;
  opt.method = IntegrationMethod::kBackwardEuler;
  opt.residualTol = 1e-12;
  opt.updateTol = 1e-12;
  opt.solver = solver;
  return opt;
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
    if (name != "bjt follower") EXPECT_GT(swapped, 0u);

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

TEST(SparseDc, OperatingPointMatchesDense) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  buildInverterChain(nl, kit, {});
  MnaSystem sys(nl);
  DcOptions dense;
  dense.solver = LinearSolverKind::kDense;
  DcOptions sparse;
  sparse.solver = LinearSolverKind::kSparse;
  const DcResult xd = solveDc(sys, dense);
  const DcResult xs = solveDc(sys, sparse);
  for (size_t i = 0; i < sys.size(); ++i) {
    EXPECT_NEAR(xs.x[i], xd.x[i], kGoldenTol) << "unknown " << i;
  }
}

// -------------------------------------------------------------- transient

TEST(SparseTransient, InverterChainMatchesDense) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 12;
  const auto chain = buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);

  const Real t1 = 2e-9, dt = 5e-12;
  const TransientResult dense =
      runTransient(sys, 0.0, t1, dt, tightOptions(LinearSolverKind::kDense));
  const TransientResult sparse =
      runTransient(sys, 0.0, t1, dt, tightOptions(LinearSolverKind::kSparse));

  ASSERT_EQ(dense.times.size(), sparse.times.size());
  for (size_t k = 0; k < dense.times.size(); ++k) {
    for (size_t i = 0; i < sys.size(); ++i) {
      EXPECT_NEAR(sparse.states[k][i], dense.states[k][i], kGoldenTol)
          << "t=" << dense.times[k] << " unknown " << i;
    }
  }
}

TEST(SparseTransient, RingOscillatorMatchesDense) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  RealVector kick = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    kick[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.25 : -0.25);
  }

  TranOptions dopt = tightOptions(LinearSolverKind::kDense);
  dopt.initialState = &kick;
  TranOptions sopt = tightOptions(LinearSolverKind::kSparse);
  sopt.initialState = &kick;
  const Real t1 = 1e-9, dt = 5e-12;
  const TransientResult dense = runTransient(sys, 0.0, t1, dt, dopt);
  const TransientResult sparse = runTransient(sys, 0.0, t1, dt, sopt);

  ASSERT_EQ(dense.times.size(), sparse.times.size());
  for (size_t k = 0; k < dense.times.size(); ++k) {
    for (size_t i = 0; i < sys.size(); ++i) {
      EXPECT_NEAR(sparse.states[k][i], dense.states[k][i], kGoldenTol)
          << "t=" << dense.times[k] << " unknown " << i;
    }
  }
}

TEST(SparseTransient, TrapezoidalAdaptiveMatchesDense) {
  // The non-BE methods and the adaptive controller share the same kernel;
  // spot-check they agree across backends too.
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 10;
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);

  TranOptions dopt = tightOptions(LinearSolverKind::kDense);
  dopt.method = IntegrationMethod::kTrapezoidal;
  dopt.adaptive = true;
  TranOptions sopt = dopt;
  sopt.solver = LinearSolverKind::kSparse;
  const TransientResult dense = runTransient(sys, 0.0, 1e-9, 5e-12, dopt);
  const TransientResult sparse = runTransient(sys, 0.0, 1e-9, 5e-12, sopt);

  ASSERT_EQ(dense.times.size(), sparse.times.size());
  for (size_t k = 0; k < dense.times.size(); ++k) {
    for (size_t i = 0; i < sys.size(); ++i) {
      EXPECT_NEAR(sparse.states[k][i], dense.states[k][i], kGoldenTol);
    }
  }
}

// ------------------------------------------------------------ sensitivity

TEST(SparseSensitivity, InverterChainMatchesDense) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 10;
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);
  const auto sources = sys.collectSources(true, false);
  ASSERT_GT(sources.size(), 10u);  // two mismatch params per MOSFET

  const Real t1 = 1.5e-9, dt = 5e-12;
  const TransientSensitivityResult dense = runTransientSensitivity(
      sys, 0.0, t1, dt, sources, tightOptions(LinearSolverKind::kDense));
  const TransientSensitivityResult sparse = runTransientSensitivity(
      sys, 0.0, t1, dt, sources, tightOptions(LinearSolverKind::kSparse));

  ASSERT_EQ(dense.times.size(), sparse.times.size());
  for (size_t k = 0; k < dense.times.size(); ++k) {
    for (size_t i = 0; i < sys.size(); ++i) {
      EXPECT_NEAR(sparse.states[k][i], dense.states[k][i], kGoldenTol);
    }
  }
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t k = 0; k < dense.times.size(); ++k) {
      for (size_t i = 0; i < sys.size(); ++i) {
        const Real ref = dense.sens[s][k][i];
        EXPECT_NEAR(sparse.sens[s][k][i], ref,
                    kGoldenTol * std::max(1.0, std::fabs(ref)))
            << sources[s].name << " t=" << dense.times[k];
      }
    }
  }
  // The shared-Jacobian recursion must not add factorizations beyond the
  // Newton kernel's own (plus the initial DC-sensitivity factor).
  EXPECT_LE(sparse.stats.totalFactorizations(),
            sparse.times.size() * 10);  // sanity ceiling, not a perf claim
}

TEST(SparseSensitivity, RingOscillatorMatchesDense) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  const auto sources = sys.collectSources(true, false);
  RealVector kick = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    kick[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.25 : -0.25);
  }

  TranOptions dopt = tightOptions(LinearSolverKind::kDense);
  dopt.initialState = &kick;
  TranOptions sopt = tightOptions(LinearSolverKind::kSparse);
  sopt.initialState = &kick;
  const Real t1 = 0.5e-9, dt = 2e-12;
  const TransientSensitivityResult dense =
      runTransientSensitivity(sys, 0.0, t1, dt, sources, dopt);
  const TransientSensitivityResult sparse =
      runTransientSensitivity(sys, 0.0, t1, dt, sources, sopt);

  ASSERT_EQ(dense.times.size(), sparse.times.size());
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t k = 0; k < dense.times.size(); ++k) {
      for (size_t i = 0; i < sys.size(); ++i) {
        const Real ref = dense.sens[s][k][i];
        EXPECT_NEAR(sparse.sens[s][k][i], ref,
                    kGoldenTol * std::max(1.0, std::fabs(ref)));
      }
    }
  }
}

// ------------------------------------------------- fill-reducing ordering

// Assembles the transient Jacobian pattern J = G + a*C of a system at a
// given state and reports nnz(L+U) under the requested column ordering.
size_t jacobianFactorNnz(const MnaSystem& sys, const RealVector& x,
                         OrderingKind kind) {
  RealSparse gsp, csp;
  sys.evalSparse(x, 0.0, nullptr, nullptr, &gsp, &csp, {});
  MergedSparseAssembler<Real> jac;
  jac.assemble(gsp, csp, 1.0 / 5e-12);
  SparseLU<Real> lu(jac.matrix, 0.1, kind);
  return lu.factorNonZeros();
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
  const RealVector x = solveDc(sys, {}).x;

  const size_t amd = jacobianFactorNnz(sys, x, OrderingKind::kAmd);
  const size_t degree = jacobianFactorNnz(sys, x, OrderingKind::kDegree);
  EXPECT_LT(amd, degree);
}

// 63-stage ring: the Jacobian graph is a wheel (cycle + vdd hub), whose
// minimum fill is exactly the n-3-edge cycle triangulation. The degree
// ordering already achieves it, so AMD can only match — the assertion is
// that it never does worse, on top of hitting the known optimum.
TEST(SparseOrdering, AmdMatchesOptimalFillOnRing) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  RingOscillatorOptions oopt;
  oopt.stages = 63;
  buildRingOscillator(nl, kit, oopt);
  MnaSystem sys(nl);
  RealVector x(sys.size(), 0.6);

  const size_t amd = jacobianFactorNnz(sys, x, OrderingKind::kAmd);
  const size_t degree = jacobianFactorNnz(sys, x, OrderingKind::kDegree);
  EXPECT_LE(amd, degree);
}

// Golden agreement across orderings: the ordering changes roundoff, not
// the converged solution. Run the sparse transient under all three
// orderings and compare trajectories to the dense path.
TEST(SparseOrdering, TransientAgreesAcrossOrderings) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 12;
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);

  const Real t1 = 1e-9, dt = 5e-12;
  const TransientResult dense =
      runTransient(sys, 0.0, t1, dt, tightOptions(LinearSolverKind::kDense));
  for (OrderingKind kind : {OrderingKind::kNatural, OrderingKind::kDegree,
                            OrderingKind::kAmd}) {
    TranOptions sopt = tightOptions(LinearSolverKind::kSparse);
    sopt.ordering = kind;
    const TransientResult sparse = runTransient(sys, 0.0, t1, dt, sopt);
    ASSERT_EQ(dense.times.size(), sparse.times.size());
    for (size_t k = 0; k < dense.times.size(); ++k) {
      for (size_t i = 0; i < sys.size(); ++i) {
        EXPECT_NEAR(sparse.states[k][i], dense.states[k][i], kGoldenTol)
            << "ordering " << static_cast<int>(kind) << " t="
            << dense.times[k] << " unknown " << i;
      }
    }
  }
}

// Refactor-after-reorder: one workspace steps the ring for many steps;
// the AMD symbolic factorization from step 1 must be reused (numeric
// refactorizations, not fresh symbolic factors) and keep producing the
// dense-path trajectory.
TEST(SparseOrdering, WorkspaceReusesAmdSymbolicAcrossSteps) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  RealVector kick = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    kick[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.25 : -0.25);
  }

  TranOptions sopt = tightOptions(LinearSolverKind::kSparse);
  sopt.ordering = OrderingKind::kAmd;
  sopt.method = IntegrationMethod::kBackwardEuler;

  const size_t n = sys.size();
  TransientWorkspace ws;
  RealVector x = kick, q;
  sys.evalDense(x, 0.0, nullptr, &q, nullptr, nullptr, {});
  RealVector qd(n, 0.0);
  const Real h = 5e-12;
  for (int k = 0; k < 100; ++k) {
    ASSERT_TRUE(integrateStep(sys, sopt.method, k == 0, k * h, h, x, q, qd,
                              nullptr, sopt, ws));
  }
  EXPECT_EQ(ws.stats.factorizations, 1u);   // one AMD symbolic analysis
  EXPECT_GE(ws.stats.refactorizations, 99u);  // everything else rode the pattern
}

}  // namespace
}  // namespace psmn
