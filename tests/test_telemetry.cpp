// Telemetry subsystem tests — the three promises docs/architecture.md's
// "Observability" section makes:
//   1. Telemetry never feeds back: engine outputs are bit-identical with a
//      registry bound and without, for every jobs count.
//   2. Registry counter totals are deterministic across jobs counts and
//      steal schedules (slot placement varies, sums never do).
//   3. SolveStats counters have pinned, documented semantics, and trace
//      spans stay well-formed (properly nested per slot) under exceptions
//      and sweep retries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stdcell.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "runtime/scenario_sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "util/telemetry.hpp"

namespace psmn {
namespace {

// ------------------------------------------------------------- fixtures

std::unique_ptr<Netlist> makeRcNetlist() {
  auto nl = std::make_unique<Netlist>();
  const NodeId top = nl->node("top");
  const NodeId mid = nl->node("mid");
  nl->add<VSource>("V1", top, kGround,
                   SourceWave::pulse(0.0, 2.0, 1e-9, 0.5e-9, 0.5e-9, 6e-9,
                                     20e-9),
                   *nl);
  nl->add<Resistor>("R1", top, mid, 1e3, *nl, /*sigma=*/10.0);
  nl->add<Resistor>("R2", mid, kGround, 1e3, *nl, /*sigma=*/10.0);
  nl->add<Capacitor>("C1", mid, kGround, 1e-12, *nl);
  return nl;
}

std::unique_ptr<Netlist> makeChainNetlist(Real cLoad) {
  auto nl = std::make_unique<Netlist>();
  const ProcessKit kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 4;
  copt.cLoad = cLoad;
  buildInverterChain(*nl, kit, copt);
  return nl;
}

std::vector<SweepScenario> chainScenarios(int n) {
  std::vector<SweepScenario> scenarios;
  for (int i = 0; i < n; ++i) {
    SweepScenario sc;
    sc.name = "cload_" + std::to_string(i);
    const Real cLoad = 2e-15 * (i + 1);
    sc.make = [cLoad] { return makeChainNetlist(cLoad); };
    sc.outNode = "ch4";
    sc.t0 = 0.0;
    sc.t1 = 2e-9;
    sc.dt = 20e-12;
    scenarios.push_back(std::move(sc));
  }
  return scenarios;
}

std::vector<SweepResult> sweepWithTelemetry(
    const std::vector<SweepScenario>& scenarios, size_t jobs,
    TelemetryRegistry* reg) {
  ThreadPool pool(jobs);
  if (reg != nullptr) {
    pool.attachTelemetry(reg);
    TelemetryScope scope(*reg, 0);
    return runScenarioSweep(scenarios, pool);
  }
  return runScenarioSweep(scenarios, pool);
}

// ------------------------------------------------------ probe mechanics

TEST(Telemetry, UnboundProbesAreNoops) {
  EXPECT_FALSE(telemetryBound());
  telemetryCount(Counter::kMnaEvals);  // must not crash, must not record
  EXPECT_FALSE(telemetryBound());
}

TEST(Telemetry, ScopesNestAndRestoreLikeFaultScope) {
  TelemetryRegistry outer(1), inner(1);
  {
    TelemetryScope so(outer, 0);
    EXPECT_TRUE(telemetryBound());
    telemetryCount(Counter::kMnaEvals);
    {
      TelemetryScope si(inner, 0);
      telemetryCount(Counter::kMnaEvals, 2);
    }
    telemetryCount(Counter::kMnaEvals);  // back on `outer`
  }
  EXPECT_FALSE(telemetryBound());
  EXPECT_EQ(outer.counterTotal(Counter::kMnaEvals), 2u);
  EXPECT_EQ(inner.counterTotal(Counter::kMnaEvals), 2u);
}

TEST(Telemetry, OutOfRangeSlotClampsToLastSlot) {
  TelemetryRegistry reg(2);
  TelemetryScope scope(reg, 99);
  telemetryCount(Counter::kMnaEvals);
  EXPECT_EQ(reg.counterTotal(Counter::kMnaEvals), 1u);
}

TEST(Telemetry, CounterAndPhaseNamesAreStable) {
  // The metrics-JSON keys are part of the CI contract
  // (scripts/check_run_report.py, scripts/check_bench_trend.py).
  EXPECT_STREQ(counterName(Counter::kNewtonIterations), "newton_iterations");
  EXPECT_STREQ(counterName(Counter::kFactorNnzTotal), "factor_nnz_total");
  EXPECT_STREQ(counterName(Counter::kScenarioRetries), "scenario_retries");
  EXPECT_STREQ(phaseName(Phase::kTransient), "transient");
  EXPECT_STREQ(phaseName(Phase::kScenario), "scenario");
}

// ---------------------------------------------------- SolveStats pinning

TEST(SolveStats, TransientCountersSatisfyTheKernelInvariants) {
  // integrateStep does exactly one eval, one factor-or-refactor, and one
  // solve per Newton iteration, so those four counters are locked together;
  // `steps` counts accepted steps of the fixed-grid run.
  auto nl = makeRcNetlist();
  nl->finalize();
  MnaSystem sys(*nl);
  const Real dt = 20e-12, t1 = 2e-9;
  const TransientResult tr = runTransient(sys, 0.0, t1, dt, {});

  const uint64_t expectSteps = static_cast<uint64_t>(std::llround(t1 / dt));
  EXPECT_EQ(tr.stats.steps, expectSteps);
  EXPECT_EQ(tr.stats.evals, tr.stats.newtonIterations);
  EXPECT_EQ(tr.stats.solves, tr.stats.newtonIterations);
  EXPECT_EQ(tr.stats.totalFactorizations(), tr.stats.newtonIterations);
  // Every step needs at least one iteration; the linear RC needs few.
  EXPECT_GE(tr.stats.newtonIterations, tr.stats.steps);
  EXPECT_LE(tr.stats.newtonIterations, 4 * tr.stats.steps);
}

TEST(SolveStats, SparseTransientReusesThePatternAndReportsFactorNnz) {
  auto nl = makeChainNetlist(4e-15);
  nl->finalize();
  MnaSystem sys(*nl);
  const TransientResult tr = runTransient(sys, 0.0, 2e-9, 20e-12, {});
  // One symbolic factorization, everything else rides the pivot sequence.
  EXPECT_EQ(tr.stats.factorizations, 1u);
  EXPECT_EQ(tr.stats.refactorizations, tr.stats.newtonIterations - 1);
  EXPECT_GT(tr.stats.factorNnz, 0u);
}

TEST(SolveStats, DcStatsCountAllLadderIterations) {
  auto nl = makeChainNetlist(4e-15);
  nl->finalize();
  MnaSystem sys(*nl);
  const DcResult dc = solveDc(sys);
  EXPECT_GE(dc.stats.newtonIterations, 1u);
  EXPECT_EQ(dc.stats.evals, dc.stats.newtonIterations);
  EXPECT_EQ(dc.stats.solves, dc.stats.newtonIterations);
  EXPECT_EQ(dc.stats.totalFactorizations(), dc.stats.newtonIterations);
  EXPECT_EQ(dc.stats.steps, 0u);
}

TEST(SolveStats, AddComposesAndTreatsFactorNnzAsALevel) {
  SolveStats a;
  a.newtonIterations = 3;
  a.factorNnz = 100;
  SolveStats b;
  b.newtonIterations = 4;
  b.factorNnz = 0;  // dense leg: must not clobber the sparse level
  SolveStats sum = a;
  sum.add(b);
  EXPECT_EQ(sum.newtonIterations, 7u);
  EXPECT_EQ(sum.factorNnz, 100u);
}

// ------------------------------------- determinism across jobs and on/off

TEST(Telemetry, ResultsBitIdenticalWithTelemetryOnAndOffAcrossJobs) {
  const auto scenarios = chainScenarios(6);
  const auto baseline = sweepWithTelemetry(scenarios, 1, nullptr);

  for (const size_t jobs : {size_t{1}, size_t{2}, size_t{8}}) {
    TelemetryRegistry::Options opt;
    opt.collectEvents = true;
    opt.detail = TraceDetail::kStep;
    TelemetryRegistry reg(jobs, opt);
    const auto traced = sweepWithTelemetry(scenarios, jobs, &reg);
    ASSERT_EQ(traced.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_TRUE(traced[i].ok) << traced[i].error;
      ASSERT_EQ(traced[i].waveform.size(), baseline[i].waveform.size());
      for (size_t k = 0; k < baseline[i].waveform.size(); ++k) {
        EXPECT_EQ(traced[i].waveform[k], baseline[i].waveform[k]);
      }
      // Per-result stats are maintained on the evaluating slot and must
      // not depend on the registry or the schedule either.
      EXPECT_EQ(traced[i].stats, baseline[i].stats);
    }
  }
}

TEST(Telemetry, CounterTotalsDeterministicAcrossJobsCounts) {
  const auto scenarios = chainScenarios(6);
  TelemetryRegistry::Totals ref{};
  std::vector<SweepResult> refResults;
  bool first = true;
  for (const size_t jobs : {size_t{1}, size_t{2}, size_t{8}}) {
    TelemetryRegistry reg(jobs);
    const auto results = sweepWithTelemetry(scenarios, jobs, &reg);
    const auto totals = reg.totals();
    if (first) {
      ref = totals;
      refResults = results;
      first = false;
    } else {
      EXPECT_EQ(totals.counters, ref.counters) << "jobs=" << jobs;
    }
    // Cross-check registry counters against the per-result stats: accepted
    // steps are only counted in the transient kernel, so the probe total
    // must equal the sum the engines reported result-side.
    uint64_t steps = 0;
    for (const auto& r : results) steps += r.stats.steps;
    EXPECT_EQ(reg.counterTotal(Counter::kStepsAccepted), steps);
    EXPECT_EQ(reg.counterTotal(Counter::kScenariosRun), scenarios.size());
    EXPECT_EQ(reg.counterTotal(Counter::kScenarioRetries), 0u);
    // The registry's Newton total also covers each scenario's internal DC
    // operating-point solve, which result-side transient stats exclude.
    uint64_t newton = 0;
    for (const auto& r : results) newton += r.stats.newtonIterations;
    EXPECT_GT(reg.counterTotal(Counter::kNewtonIterations), newton);
  }
}

// ------------------------------------------------------------ trace spans

// Spans on one slot must be properly nested: any two are either disjoint
// or one contains the other. Chrome trace viewers render overlapping
// non-nested "X" events on one track as garbage.
void expectWellFormedNesting(const std::vector<TraceEvent>& events) {
  for (size_t i = 0; i < events.size(); ++i) {
    for (size_t j = i + 1; j < events.size(); ++j) {
      const TraceEvent& a = events[i];
      const TraceEvent& b = events[j];
      if (a.slot != b.slot) continue;
      const int64_t aEnd = a.startNs + a.durNs;
      const int64_t bEnd = b.startNs + b.durNs;
      const bool disjoint = aEnd <= b.startNs || bEnd <= a.startNs;
      const bool aInB = b.startNs <= a.startNs && aEnd <= bEnd;
      const bool bInA = a.startNs <= b.startNs && bEnd <= aEnd;
      EXPECT_TRUE(disjoint || aInB || bInA)
          << a.name << " [" << a.startNs << "," << aEnd << ") vs " << b.name
          << " [" << b.startNs << "," << bEnd << ") on slot " << a.slot;
    }
  }
}

TEST(TraceSpans, WellFormedUnderFaultInjectedRetries) {
  // One scenario fails its first attempt and recovers on the retry: the
  // armed fault suppresses transient Newton acceptances for exactly the
  // first attempt's budget, so attempt 1 exhausts maxNewton and throws
  // through the open step spans — whose destructors must still close them
  // correctly — and the retry (doubled budget) converges.
  auto scenarios = chainScenarios(4);
  scenarios[1].faults.arm("tran.newton.converge", 0,
                          scenarios[1].tran.maxNewton);
  scenarios[1].retry.maxRetries = 2;

  TelemetryRegistry::Options opt;
  opt.collectEvents = true;
  opt.detail = TraceDetail::kStep;
  TelemetryRegistry reg(2, opt);
  const auto results = sweepWithTelemetry(scenarios, 2, &reg);

  ASSERT_TRUE(results[1].ok) << results[1].error;
  EXPECT_TRUE(results[1].recovered);
  EXPECT_GT(results[1].attempts, 1);
  EXPECT_GE(reg.counterTotal(Counter::kScenarioRetries), 1u);

  const auto events = reg.events();
  ASSERT_FALSE(events.empty());
  expectWellFormedNesting(events);
  // Every scenario contributes exactly one labelled scenario span (it
  // covers all of that scenario's attempts).
  size_t scenarioSpans = 0;
  bool sawLabel = false;
  for (const TraceEvent& ev : events) {
    ASSERT_NE(ev.name, nullptr);
    EXPECT_GE(ev.durNs, 0);
    if (ev.phase == Phase::kScenario) {
      ++scenarioSpans;
      if (ev.arg == "cload_1") sawLabel = true;
    }
  }
  EXPECT_EQ(scenarioSpans, scenarios.size());
  EXPECT_TRUE(sawLabel);
}

TEST(TraceSpans, DetailLevelGatesStepAndKernelSpans) {
  auto nl = makeRcNetlist();
  nl->finalize();

  const auto runWithDetail = [&](TraceDetail d) {
    TelemetryRegistry::Options opt;
    opt.collectEvents = true;
    opt.detail = d;
    TelemetryRegistry reg(1, opt);
    {
      TelemetryScope scope(reg, 0);
      MnaSystem sys(*nl);
      runTransient(sys, 0.0, 2e-9, 20e-12, {});
    }
    return reg.events();
  };

  const auto hasName = [](const std::vector<TraceEvent>& evs,
                          const char* name) {
    return std::any_of(evs.begin(), evs.end(), [&](const TraceEvent& e) {
      return std::string_view(e.name) == name;
    });
  };

  const auto phaseOnly = runWithDetail(TraceDetail::kPhase);
  EXPECT_TRUE(hasName(phaseOnly, "transient"));
  EXPECT_FALSE(hasName(phaseOnly, "tran_step"));
  EXPECT_FALSE(hasName(phaseOnly, "newton_iter"));

  const auto stepLevel = runWithDetail(TraceDetail::kStep);
  EXPECT_TRUE(hasName(stepLevel, "tran_step"));
  EXPECT_FALSE(hasName(stepLevel, "newton_iter"));

  const auto kernelLevel = runWithDetail(TraceDetail::kKernel);
  EXPECT_TRUE(hasName(kernelLevel, "tran_step"));
  EXPECT_TRUE(hasName(kernelLevel, "newton_iter"));
  expectWellFormedNesting(kernelLevel);
}

}  // namespace
}  // namespace psmn
