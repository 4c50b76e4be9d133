// BJT op-amp benchmarks: the bipolar analog deck (circuit/bjt_opamp, 20
// transistors, ~26 MNA unknowns) through the flows the paper times on its
// benchmark circuits.
//
//   BM_BjtOpAmpDc          — full DC operating point (bias chain + two
//       gain stages + class-AB output; plain Newton from zero).
//   BM_BjtOpAmpTransient   — 600 ns follower step response on a 2 ns grid.
//   BM_BjtOpAmpSensitivity — the same window with all 44 mismatch
//       injection columns (2 per BJT + the degeneration resistors), the
//       paper's one-solve alternative to a Monte-Carlo batch.
//
// The committed baseline (bench/baseline/bench_bjt_opamp.json) rides the
// same trend gate as the kernel benches: a regression in the Ebers-Moll
// eval, the slot-bound sparse stamping, or the sensitivity recursion shows
// up here as a run-over-run slowdown.
#include <benchmark/benchmark.h>

#include "circuit/bjt_opamp.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"
#include "numeric/dense_lu.hpp"
#include "numeric/rng.hpp"

namespace psmn {
namespace {

// check_bench_trend.py normalizes every timing by the BM_DenseLuFactor/64
// anchor measured in the same run, so each gated binary must carry its
// own copy (same fixture as bench_kernels).
void BM_DenseLuFactor(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(n);
  RealMatrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += 4.0;
  }
  for (auto _ : state) {
    DenseLU<Real> lu(a);
    benchmark::DoNotOptimize(lu);
  }
}
BENCHMARK(BM_DenseLuFactor)->Arg(64);

void BM_BjtOpAmpDc(benchmark::State& state) {
  Netlist nl;
  buildBjtFollower(nl, BjtKit::bipolar5());
  MnaSystem sys(nl);
  SolveStats stats;
  for (auto _ : state) {
    const DcResult dc = solveDc(sys);
    stats = dc.stats;
    benchmark::DoNotOptimize(dc.x.data());
  }
  state.counters["newton_iters"] = static_cast<double>(stats.newtonIterations);
}
BENCHMARK(BM_BjtOpAmpDc);

void BM_BjtOpAmpTransient(benchmark::State& state) {
  Netlist nl;
  buildBjtFollower(nl, BjtKit::bipolar5());
  MnaSystem sys(nl);
  SolveStats stats;
  for (auto _ : state) {
    const TransientResult tr = runTransient(sys, 0.0, 600e-9, 2e-9);
    stats = tr.stats;
    benchmark::DoNotOptimize(tr.finalState.data());
  }
  // Deterministic per-run cost counters, gated by check_bench_trend.py.
  state.counters["newton_iters"] = static_cast<double>(stats.newtonIterations);
  state.counters["lu_factors"] = static_cast<double>(stats.factorizations);
  state.counters["lu_refactors"] = static_cast<double>(stats.refactorizations);
}
BENCHMARK(BM_BjtOpAmpTransient);

void BM_BjtOpAmpSensitivity(benchmark::State& state) {
  Netlist nl;
  buildBjtFollower(nl, BjtKit::bipolar5());
  MnaSystem sys(nl);
  const auto sources = sys.collectSources();
  TranOptions topt;
  topt.method = IntegrationMethod::kBackwardEuler;
  SolveStats stats;
  for (auto _ : state) {
    const TransientSensitivityResult sens =
        runTransientSensitivity(sys, 0.0, 600e-9, 2e-9, sources, topt);
    stats = sens.stats;
    benchmark::DoNotOptimize(sens.sens.data());
  }
  state.counters["sources"] = static_cast<double>(sources.size());
  state.counters["newton_iters"] = static_cast<double>(stats.newtonIterations);
  state.counters["lu_factors"] = static_cast<double>(stats.factorizations);
  state.counters["lu_refactors"] = static_cast<double>(stats.refactorizations);
}
BENCHMARK(BM_BjtOpAmpSensitivity);

}  // namespace
}  // namespace psmn

BENCHMARK_MAIN();
