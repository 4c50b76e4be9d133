// Microbenchmarks of the solver kernels (google-benchmark): dense/sparse
// LU factor/refactor, real and complex sparse multi-RHS solves, one MNA
// evaluation, transient steps and transient sensitivity on the sparse
// Newton kernel, one shooting-PSS solve.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <type_traits>

#include "circuit/stdcell.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"
#include "numeric/dense_lu.hpp"
#include "numeric/rng.hpp"
#include "numeric/sparse_lu.hpp"
#include "rf/pss.hpp"
#include "util/telemetry.hpp"

namespace psmn {
namespace {

RealMatrix randomMatrix(size_t n, uint64_t seed) {
  Rng rng(seed);
  RealMatrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += 4.0;
  }
  return a;
}

void BM_DenseLuFactor(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const RealMatrix a = randomMatrix(n, n);
  for (auto _ : state) {
    DenseLU<Real> lu(a);
    benchmark::DoNotOptimize(lu);
  }
}
BENCHMARK(BM_DenseLuFactor)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_DenseLuSolve(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const DenseLU<Real> lu(randomMatrix(n, n));
  RealVector b(n, 1.0);
  for (auto _ : state) {
    auto x = lu.solve(b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_DenseLuSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_SparseLuFactor(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(n);
  RealMatrix dense(n, n);
  for (size_t i = 0; i < n; ++i) {
    dense(i, i) = 4.0;
    for (int k = 0; k < 4; ++k) {
      const auto j = static_cast<size_t>(rng.uniform(0.0, 1.0) * n);
      if (j < n) dense(i, j) += rng.uniform(-1.0, 1.0);
    }
  }
  const auto sp = RealSparse::fromDense(dense);
  size_t nnz = 0;
  for (auto _ : state) {
    SparseLU<Real> lu(sp);
    nnz = lu.factorNonZeros();
    benchmark::DoNotOptimize(lu);
  }
  state.counters["factor_nnz"] = static_cast<double>(nnz);
}
BENCHMARK(BM_SparseLuFactor)->Arg(32)->Arg(128)->Arg(512);

RealSparse randomSparse(size_t n, uint64_t seed) {
  Rng rng(seed);
  RealMatrix dense(n, n);
  for (size_t i = 0; i < n; ++i) {
    dense(i, i) = 4.0;
    for (int k = 0; k < 4; ++k) {
      const auto j = static_cast<size_t>(rng.uniform(0.0, 1.0) * n);
      if (j < n) dense(i, j) += rng.uniform(-1.0, 1.0);
    }
  }
  return RealSparse::fromDense(dense);
}

void BM_SparseLuRefactor(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto sp = randomSparse(n, n);
  SparseLU<Real> lu(sp);
  for (auto _ : state) {
    const bool ok = lu.refactor(sp);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["factor_nnz"] = static_cast<double>(lu.factorNonZeros());
}
BENCHMARK(BM_SparseLuRefactor)->Arg(32)->Arg(128)->Arg(512);

/// Factor-fill tracker on the acceptance fixtures: one full factor (AMD
/// ordering + symbolic + numeric) of the transient Jacobian J = G + C/h.
/// The `factor_nnz` counter feeds the fill-trend check in
/// scripts/check_bench_trend.py — nnz is a pure function of the pattern
/// and the ordering, so unlike the timings it is machine-independent and
/// tracked un-normalized.
void BM_FactorFill(benchmark::State& state, bool ring) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  if (ring) {
    RingOscillatorOptions oopt;
    oopt.stages = 63;
    buildRingOscillator(nl, kit, oopt);
  } else {
    InverterChainOptions copt;
    copt.stages = 8;
    copt.rows = 16;
    buildInverterChain(nl, kit, copt);
  }
  MnaSystem sys(nl);
  RealVector x(sys.size(), 0.6);
  RealSparse gsp, csp;
  sys.evalSparse(x, 0.0, nullptr, nullptr, &gsp, &csp, {});
  MergedSparseAssembler<Real> jac;
  jac.assemble(gsp, csp, 1.0 / 5e-12);
  size_t nnz = 0;
  for (auto _ : state) {
    SparseLU<Real> lu(jac.matrix);
    nnz = lu.factorNonZeros();
    benchmark::DoNotOptimize(lu);
  }
  state.counters["unknowns"] = static_cast<double>(sys.size());
  state.counters["factor_nnz"] = static_cast<double>(nnz);
}
BENCHMARK_CAPTURE(BM_FactorFill, chain_amd, false);
BENCHMARK_CAPTURE(BM_FactorFill, ring_amd, true);

// Complex twin of a real matrix: same pattern, with a j-shift on the
// diagonal like the LPTV step matrices K = G + (1/h + jw)C.
CplxMatrix complexTwin(const RealMatrix& a) {
  CplxMatrix c(a.rows(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != 0.0) c(i, j) = Cplx(a(i, j), i == j ? 1.0 : 0.5 * a(i, j));
    }
  }
  return c;
}

template <class T>
SparseLU<T> sparseLuFor(size_t n) {
  const RealSparse a = randomSparse(n, n);
  if constexpr (std::is_same_v<T, Real>) return SparseLU<Real>(a);
  else return SparseLU<Cplx>(CplxSparse::fromDense(complexTwin(a.toDense())));
}

// The solve benches restore their block from this pristine copy on every
// iteration: solving in place on one block drives it to denormals, then
// to exact zeros, within a few hundred iterations.
template <class T>
std::vector<T> pristineBlock(size_t size) {
  Rng rng(size);
  std::vector<T> block(size);
  for (auto& v : block) {
    if constexpr (std::is_same_v<T, Real>) v = rng.uniform(-1.0, 1.0);
    else v = Cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  }
  return block;
}

size_t benchSize(const benchmark::State& state) {
  return static_cast<size_t>(state.range(0));
}

// Batched multi-RHS substitution (the sensitivity, monodromy and LPTV
// inner kernel) vs. `nrhs` scattered single-column solves on the same
// factorization.
template <class T, class Lu>
void solveMultiBench(benchmark::State& state, const Lu& lu) {
  const size_t n = lu.size();
  const auto nrhs = static_cast<size_t>(state.range(1));
  const std::vector<T> pristine = pristineBlock<T>(n * nrhs);
  std::vector<T> batch = pristine;
  for (auto _ : state) {
    std::copy(pristine.begin(), pristine.end(), batch.begin());
    lu.solveManyInPlace(batch, nrhs);
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
  }
}

template <class T, class Lu>
void solveScatteredBench(benchmark::State& state, const Lu& lu) {
  const size_t n = lu.size();
  const auto nrhs = static_cast<size_t>(state.range(1));
  const std::vector<T> pristine = pristineBlock<T>(n * nrhs);
  std::vector<T> batch = pristine;
  for (auto _ : state) {
    std::copy(pristine.begin(), pristine.end(), batch.begin());
    for (size_t r = 0; r < nrhs; ++r) {
      lu.solveInPlace(std::span<T>(batch.data() + r * n, n));
    }
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
  }
}

void BM_SparseLuSolveMulti(benchmark::State& state) {
  solveMultiBench<Real>(state, sparseLuFor<Real>(benchSize(state)));
}
void BM_SparseLuSolveMultiComplex(benchmark::State& state) {
  solveMultiBench<Cplx>(state, sparseLuFor<Cplx>(benchSize(state)));
}
void BM_SparseLuSolveScattered(benchmark::State& state) {
  solveScatteredBench<Real>(state, sparseLuFor<Real>(benchSize(state)));
}
void BM_SparseLuSolveScatteredComplex(benchmark::State& state) {
  solveScatteredBench<Cplx>(state, sparseLuFor<Cplx>(benchSize(state)));
}
BENCHMARK(BM_SparseLuSolveMulti)->Args({128, 1})->Args({128, 16})->Args({128, 64});
BENCHMARK(BM_SparseLuSolveMultiComplex)->Args({128, 16})->Args({128, 64});
BENCHMARK(BM_SparseLuSolveScattered)->Args({128, 16})->Args({128, 64});
BENCHMARK(BM_SparseLuSolveScatteredComplex)->Args({128, 16})->Args({128, 64});

void BM_MnaEvalComparator(benchmark::State& state) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  buildComparatorTestbench(nl, kit);
  MnaSystem sys(nl);
  RealVector x(sys.size(), 0.5);
  RealVector f, q;
  RealMatrix g, c;
  for (auto _ : state) {
    sys.evalDense(x, 0.0, &f, &q, &g, &c, {});
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_MnaEvalComparator);

// The same netlist and iterate on the sparse backend: the shared slot
// stamping loop into the CSC values of the system's declared pattern.
void BM_MnaEvalComparatorSparse(benchmark::State& state) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  buildComparatorTestbench(nl, kit);
  MnaSystem sys(nl);
  RealVector x(sys.size(), 0.5);
  RealVector f, q;
  RealSparse g, c;
  for (auto _ : state) {
    sys.evalSparse(x, 0.0, &f, &q, &g, &c, {});
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_MnaEvalComparatorSparse);

void BM_TransientRingOscPeriod(benchmark::State& state) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  // Initial state: alternate perturbation to kick the oscillation.
  RealVector x0(sys.size(), kit.vdd / 2);
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    x0[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.2 : -0.2);
  }
  TranOptions topt;
  topt.method = IntegrationMethod::kBackwardEuler;
  topt.initialState = &x0;
  topt.storeStates = false;
  for (auto _ : state) {
    auto tr = runTransient(sys, 0.0, 2e-9, 5e-12, topt);
    benchmark::DoNotOptimize(tr);
  }
}
BENCHMARK(BM_TransientRingOscPeriod);

// --------------------------------------------------------- Newton engines

/// One BE transient step (Newton + linear solves) on an N-stage ring
/// oscillator. The argument is the stage count; MNA unknowns = stages + 2.
/// The cached-pattern assembly and symbolic reuse make this scale
/// near-linearly in n.
void transientStepBench(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  RingOscillatorOptions oopt;
  oopt.stages = stages;
  const auto osc = buildRingOscillator(nl, kit, oopt);
  MnaSystem sys(nl);
  const size_t n = sys.size();

  TranOptions opt;
  opt.method = IntegrationMethod::kBackwardEuler;
  RealVector x0 = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    x0[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.2 : -0.2);
  }
  RealVector q0;
  sys.evalDense(x0, 0.0, nullptr, &q0, nullptr, nullptr, {});

  TransientWorkspace ws;
  RealVector x = x0, q = q0, qd(n, 0.0);
  // Warm the workspace (pattern, symbolic factorization, buffer sizes).
  Real t = 0.0;
  const Real h = 5e-12;
  integrateStep(sys, opt.method, true, t, h, x, q, qd, nullptr, opt, ws);
  t += h;
  size_t steps = 0;
  for (auto _ : state) {
    if (!integrateStep(sys, opt.method, false, t, h, x, q, qd, nullptr, opt,
                       ws)) {
      state.SkipWithError("Newton failed");
      break;
    }
    t += h;
    ++steps;
  }
  state.counters["unknowns"] = static_cast<double>(n);
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["factor_nnz"] = static_cast<double>(ws.slu.factorNonZeros());
}

void BM_TransientStepSparse(benchmark::State& state) {
  transientStepBench(state);
}
/// The stepping loop with a metrics registry bound (counters + phase
/// timers, no event collection): the acceptance bar is <2% over the
/// unbound BM_TransientStepSparse at the same stage count — every probe
/// on this path is an inline thread-local test plus a slot-local add.
void BM_TransientStepSparseTelemetry(benchmark::State& state) {
  TelemetryRegistry reg(1);
  TelemetryScope scope(reg, 0);
  transientStepBench(state);
}
BENCHMARK(BM_TransientStepSparse)->Arg(15)->Arg(31)->Arg(63)->Arg(127);
BENCHMARK(BM_TransientStepSparseTelemetry)->Arg(63)->Arg(127);

/// Full transient-sensitivity run on `rows` parallel 8-stage inverter
/// chains (2 mismatch sources per MOSFET, so ns = 32*rows columns):
/// exercises the shared accepted-step factorization and the batched
/// multi-RHS solve. Unknowns = 8*rows + 2.
void BM_TranSensSparse(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 8;
  copt.rows = rows;
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);
  const auto sources = sys.collectSources();

  TranOptions opt;
  opt.method = IntegrationMethod::kBackwardEuler;
  SolveStats stats;
  for (auto _ : state) {
    const auto res =
        runTransientSensitivity(sys, 0.0, 1e-9, 10e-12, sources, opt);
    stats = res.stats;
    benchmark::DoNotOptimize(res);
  }
  state.counters["unknowns"] = static_cast<double>(sys.size());
  state.counters["sources"] = static_cast<double>(sources.size());
  // Per-run cost counters: deterministic (machine-independent), gated by
  // scripts/check_bench_trend.py alongside factor_nnz.
  state.counters["newton_iters"] = static_cast<double>(stats.newtonIterations);
  state.counters["lu_factors"] = static_cast<double>(stats.factorizations);
  state.counters["lu_refactors"] = static_cast<double>(stats.refactorizations);
}

BENCHMARK(BM_TranSensSparse)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ shooting PSS

/// Shared per-stage-count warmup + seed orbit for the PSS shooting
/// benchmark: computed once, so each benchmark iteration measures one full
/// shooting solve from the same near-orbit guess — period integrations,
/// the monodromy sweeps of iterations that do not close, bordered Newton,
/// and the trajectory pack.
struct RingPssFixture {
  Netlist nl;
  std::unique_ptr<MnaSystem> sys;
  int phaseIndex = -1;
  RealVector x0;
  Real period = 0.0;
};

const RingPssFixture& ringPssFixture(int stages) {
  static std::map<int, std::unique_ptr<RingPssFixture>> cache;
  auto& slot = cache[stages];
  if (!slot) {
    slot = std::make_unique<RingPssFixture>();
    auto kit = ProcessKit::cmos130();
    RingOscillatorOptions oopt;
    oopt.stages = stages;
    const auto osc = buildRingOscillator(slot->nl, kit, oopt);
    slot->sys = std::make_unique<MnaSystem>(slot->nl);
    // Long rings warm up at a step near the 180-step shooting grid's
    // (15.8 ps at 63 stages), the seed solvePssAutonomous needs.
    const Real runTime = stages > 20 ? 100e-9 : 30e-9;
    const Real dt = stages > 20 ? 16e-12 : 10e-12;
    const RingWarmup warm =
        warmupRingOscillator(*slot->sys, osc, runTime, dt);
    slot->phaseIndex = warm.phaseIndex;
    PssOptions opt;
    opt.stepsPerPeriod = 180;
    const PssResult seed = solvePssAutonomous(
        *slot->sys, warm.periodEstimate, warm.phaseIndex, warm.state, opt);
    slot->x0 = seed.states[0];
    slot->period = seed.period;
  }
  return *slot;
}

/// One autonomous shooting solve on an N-stage ring oscillator (N + 2 MNA
/// unknowns): the declared-pattern workspace and numeric refactorizations.
/// From the converged orbit's start point shooting closes on its first
/// period, so no monodromy is swept: `solve_cols` (stats.solves) is the
/// Newton iterations' one column each, and a solve that swept the
/// converged period would add n x M.
void BM_PssShootingSparse(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  const RingPssFixture& fx = ringPssFixture(stages);
  PssOptions opt;
  opt.stepsPerPeriod = 180;
  int iters = 0;
  SolveStats stats;
  for (auto _ : state) {
    const PssResult pss = solvePssAutonomous(*fx.sys, fx.period,
                                             fx.phaseIndex, fx.x0, opt);
    iters = pss.shootingIterations;
    stats = pss.stats;
    benchmark::DoNotOptimize(pss);
  }
  state.counters["unknowns"] = static_cast<double>(fx.sys->size());
  // Per-run counters of the last solve; all but shooting_iters are gated
  // by scripts/check_bench_trend.py.
  state.counters["shooting_iters"] = static_cast<double>(iters);
  state.counters["newton_iters"] = static_cast<double>(stats.newtonIterations);
  state.counters["lu_factors"] = static_cast<double>(stats.factorizations);
  state.counters["lu_refactors"] = static_cast<double>(stats.refactorizations);
  state.counters["solve_cols"] = static_cast<double>(stats.solves);
}

// 15 stages = 17 unknowns (a paper-circuit size), 63 stages = 65 unknowns.
BENCHMARK(BM_PssShootingSparse)->Arg(15)->Arg(63)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace psmn

BENCHMARK_MAIN();
