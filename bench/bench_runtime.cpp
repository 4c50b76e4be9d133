// Parallel-runtime benchmarks: scenario-sweep scaling over threads, the
// parallel multi-RHS sensitivity columns, and the shooting-PSS monodromy
// fan-out against the serial baselines.
//
//   BM_SweepScaling/<scenarios>/<jobs>       — uniform inverter-chain
//       transient scenarios fanned across the pool.
//   BM_SweepScalingRagged/<scenarios>/<jobs> — the work-stealing fixture:
//       a ragged mix of small chains with slow outliers pinned at block
//       boundaries, so the initial per-slot blocks are maximally
//       unbalanced and the scaling shown is the steal path's, not the
//       partition's.
//   BM_SensitivityParallel/<rows>/<jobs>     — column-partitioned
//       sensitivity recursion (jobs=1 is exactly the serial path:
//       ThreadPool(1) spawns no threads).
//   BM_MonodromyParallel/<stages>/<jobs>     — one period of shooting-PSS
//       monodromy accumulation on an N-stage ring from a warm orbit, the
//       column blocks fanned via PssOptions::pool.
//
// Expected shape on a multi-core box (the CI runner): near-linear sweep
// scaling — on the ragged mix too, which only scales if the steal path
// redistributes the outlier-heavy initial blocks — ≥2x sensitivity
// speedup at 4 jobs for rows>=8, and >1.5x monodromy at 4 jobs on the
// 63-stage ring. On a 1-core container all
// flatten to ~1x; what the committed baseline then pins is the runtime's
// *overhead* — jobs>1 must not run materially slower than jobs=1. Either
// way the results are bit-identical across jobs (tests/test_runtime.cpp,
// tests/test_rf_sparse.cpp).
#include <benchmark/benchmark.h>

#include <map>

#include "circuit/stdcell.hpp"
#include "engine/transient_sensitivity.hpp"
#include "rf/pss.hpp"
#include "runtime/scenario_sweep.hpp"

namespace psmn {
namespace {

std::unique_ptr<Netlist> makeChain(int stages, int rows, Real cLoad) {
  auto nl = std::make_unique<Netlist>();
  InverterChainOptions copt;
  copt.stages = stages;
  copt.rows = rows;
  copt.cLoad = cLoad;
  buildInverterChain(*nl, ProcessKit::cmos130(), copt);
  return nl;
}

/// Transient scenarios over a load-cap corner set on an 8-stage chain.
void BM_SweepScaling(benchmark::State& state) {
  const auto scenarios_n = static_cast<size_t>(state.range(0));
  const auto jobs = static_cast<size_t>(state.range(1));
  std::vector<SweepScenario> scenarios;
  for (size_t i = 0; i < scenarios_n; ++i) {
    SweepScenario sc;
    sc.name = "corner" + std::to_string(i);
    const Real cLoad = 2e-15 * (i % 8 + 1);
    sc.make = [cLoad] { return makeChain(8, 1, cLoad); };
    sc.outNode = "ch8";
    sc.t1 = 2e-9;
    sc.dt = 10e-12;
    sc.tran.storeStates = false;
    scenarios.push_back(std::move(sc));
  }
  ThreadPool pool(jobs);
  for (auto _ : state) {
    const auto results = runScenarioSweep(scenarios, pool);
    for (const auto& r : results) {
      if (!r.ok) state.SkipWithError(r.error.c_str());
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["scenarios"] = static_cast<double>(scenarios_n);
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_SweepScaling)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({16, 4})
    ->Unit(benchmark::kMillisecond);

/// The ragged mix: mostly 4-stage chains with a 16-stage outlier every
/// `outlierEvery` scenarios, placed so that a contiguous block partition
/// lands outliers and their trailing small scenarios on the same slot —
/// the initial blocks alone would idle the other slots while those blocks
/// drain; the steal path must redistribute the queued small scenarios for
/// this fixture to scale.
void BM_SweepScalingRagged(benchmark::State& state) {
  const auto scenarios_n = static_cast<size_t>(state.range(0));
  const auto jobs = static_cast<size_t>(state.range(1));
  constexpr size_t outlierEvery = 5;
  std::vector<SweepScenario> scenarios;
  for (size_t i = 0; i < scenarios_n; ++i) {
    SweepScenario sc;
    sc.name = "ragged" + std::to_string(i);
    const bool outlier = (i % outlierEvery == 0);
    const int stages = outlier ? 16 : 4;
    const Real cLoad = 2e-15 * (i % 4 + 1);
    sc.make = [stages, cLoad] { return makeChain(stages, 1, cLoad); };
    sc.outNode = "ch" + std::to_string(stages);
    sc.t1 = outlier ? 4e-9 : 1e-9;
    sc.dt = 10e-12;
    sc.tran.storeStates = false;
    scenarios.push_back(std::move(sc));
  }
  ThreadPool pool(jobs);
  for (auto _ : state) {
    const auto results = runScenarioSweep(scenarios, pool);
    for (const auto& r : results) {
      if (!r.ok) state.SkipWithError(r.error.c_str());
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["scenarios"] = static_cast<double>(scenarios_n);
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_SweepScalingRagged)
    ->Args({10, 1})
    ->Args({10, 2})
    ->Args({10, 4})
    ->Args({20, 4})
    ->Unit(benchmark::kMillisecond);

/// Column-partitioned transient sensitivity on `rows` 8-stage chains
/// (ns = 32*rows mismatch columns).
void BM_SensitivityParallel(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const auto jobs = static_cast<size_t>(state.range(1));
  auto nl = makeChain(8, rows, 5e-15);
  nl->finalize();
  MnaSystem sys(*nl);
  const auto sources = sys.collectSources();

  ThreadPool pool(jobs);
  TranOptions opt;
  opt.method = IntegrationMethod::kBackwardEuler;
  opt.pool = jobs > 1 ? &pool : nullptr;  // jobs=1: the plain serial path
  for (auto _ : state) {
    const auto res =
        runTransientSensitivity(sys, 0.0, 1e-9, 10e-12, sources, opt);
    benchmark::DoNotOptimize(res);
  }
  state.counters["unknowns"] = static_cast<double>(sys.size());
  state.counters["sources"] = static_cast<double>(sources.size());
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_SensitivityParallel)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({16, 1})
    ->Args({16, 4})
    ->Unit(benchmark::kMillisecond);

/// Warm ring-oscillator orbit for the monodromy benchmark, computed once
/// per stage count (the transient warmup dominates setup and must not be
/// re-run for every jobs variant).
struct RingOrbitFixture {
  Netlist nl;
  std::unique_ptr<MnaSystem> sys;
  RealVector x0;
  Real period = 0.0;
};

const RingOrbitFixture& ringOrbitFixture(int stages) {
  static std::map<int, std::unique_ptr<RingOrbitFixture>> cache;
  auto& slot = cache[stages];
  if (!slot) {
    slot = std::make_unique<RingOrbitFixture>();
    auto kit = ProcessKit::cmos130();
    RingOscillatorOptions oopt;
    oopt.stages = stages;
    const auto osc = buildRingOscillator(slot->nl, kit, oopt);
    slot->sys = std::make_unique<MnaSystem>(slot->nl);
    const Real runTime = stages > 20 ? 400e-9 : 30e-9;
    const Real dt = stages > 20 ? 20e-12 : 10e-12;
    const RingWarmup warm = warmupRingOscillator(*slot->sys, osc, runTime, dt);
    slot->x0 = warm.state;
    slot->period = warm.periodEstimate;
  }
  return *slot;
}

/// One period of shooting-PSS monodromy accumulation (the dominant cost of
/// every shooting iteration) on an N-stage ring: n+2 per-step companion
/// solves batched against the shared accepted-step factorization, the
/// column blocks fanned across the pool via PssOptions::pool. jobs=1 is
/// the serial batched path. The workspace persists across iterations, so
/// the symbolic factorization is computed once — exactly the shooting
/// engines' steady state.
void BM_MonodromyParallel(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  const auto jobs = static_cast<size_t>(state.range(1));
  const RingOrbitFixture& fx = ringOrbitFixture(stages);
  ThreadPool pool(jobs);
  PssOptions opt;
  opt.stepsPerPeriod = 180;
  opt.pool = jobs > 1 ? &pool : nullptr;  // jobs=1: the plain serial path
  PssWorkspace ws;
  for (auto _ : state) {
    RealVector x = fx.x0;
    const RealMatrix phi = integrateMonodromy(
        *fx.sys, x, 0.0, fx.period, opt.stepsPerPeriod, opt, ws);
    benchmark::DoNotOptimize(phi);
  }
  state.counters["unknowns"] = static_cast<double>(fx.sys->size());
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_MonodromyParallel)
    ->Args({15, 1})
    ->Args({15, 4})
    ->Args({63, 1})
    ->Args({63, 2})
    ->Args({63, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace psmn

BENCHMARK_MAIN();
