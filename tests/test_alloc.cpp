// Allocation-tracking tests: the transient stepping kernel must not touch
// the heap in the steady state (after the first step has sized the
// workspace, cached the sparsity pattern, and done the symbolic
// factorization), the LPTV direct solve behind PnoiseAnalysis::solution
// allocates per source only the envelopes it returns, and the scalar
// pnoise readouts store no envelope.
// Global operator new/delete are overridden in this binary to count
// allocations; the counters are read only around the measured loops, so
// gtest's own bookkeeping does not interfere.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "circuit/stdcell.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "rf/pnoise.hpp"
#include "rf/pss.hpp"
#include "runtime/thread_pool.hpp"
#include "util/telemetry.hpp"

namespace {
std::atomic<size_t> gAllocCount{0};
}  // namespace

void* operator new(std::size_t size) {
  ++gAllocCount;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++gAllocCount;
  if (void* p = std::aligned_alloc(static_cast<size_t>(align), size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++gAllocCount;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace psmn {
namespace {

// Steps the system `warmup + measured` times with a persistent workspace
// and returns the number of allocations during the measured tail.
size_t allocationsPerSteadyState(size_t warmup, size_t measured) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  RingOscillatorOptions oopt;
  oopt.stages = 65;  // 67 MNA unknowns
  const auto osc = buildRingOscillator(nl, kit, oopt);
  MnaSystem sys(nl);
  const size_t n = sys.size();

  RealVector x = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    x[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.2 : -0.2);
  }
  RealVector q;
  sys.evalDense(x, 0.0, nullptr, &q, nullptr, nullptr, {});
  RealVector qd(n, 0.0);

  TranOptions opt;
  opt.method = IntegrationMethod::kBackwardEuler;
  TransientWorkspace ws;
  const Real h = 5e-12;
  Real t = 0.0;
  bool beStep = true;
  for (size_t k = 0; k < warmup; ++k) {
    EXPECT_TRUE(integrateStep(sys, opt.method, beStep, t, h, x, q, qd,
                              nullptr, opt, ws));
    beStep = false;
    t += h;
  }
  const size_t before = gAllocCount.load();
  for (size_t k = 0; k < measured; ++k) {
    integrateStep(sys, opt.method, false, t, h, x, q, qd, nullptr, opt, ws);
    t += h;
  }
  return gAllocCount.load() - before;
}

TEST(Allocation, SparseSteadyStateStepsAreHeapFree) {
  EXPECT_EQ(allocationsPerSteadyState(20, 100), 0u);
}

TEST(Allocation, TelemetryProbesStayHeapFree) {
  // The test above already pins the telemetry-DISABLED case (no
  // registry is bound, every probe is one thread-local pointer test). A
  // BOUND registry must not regress the steady state either: counters are
  // plain adds into preallocated slots and spans above the configured
  // detail are compiled down to a load+compare. Only event COLLECTION
  // (--trace) is allowed to allocate, which is why it is opt-in.
  TelemetryRegistry reg(1);  // counters + phase timers, no events
  TelemetryScope scope(reg, 0);
  EXPECT_EQ(allocationsPerSteadyState(20, 100), 0u);
  EXPECT_GT(reg.counterTotal(Counter::kNewtonIterations), 0u);
  EXPECT_GT(reg.counterTotal(Counter::kSparseRefactors), 0u);
}

TEST(Allocation, SparsePssPeriodIntegrationIsHeapFree) {
  // The shooting engines' inner loop: after one warm period integration
  // (pattern cached, symbolic factorization kept, charge-state buffers
  // sized), integrating further periods through the shared PssWorkspace
  // must not touch the heap.
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  RingOscillatorOptions oopt;
  oopt.stages = 65;  // 67 MNA unknowns
  const auto osc = buildRingOscillator(nl, kit, oopt);
  MnaSystem sys(nl);

  RealVector x = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    x[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.2 : -0.2);
  }

  PssWorkspace ws;
  const Real period = 1e-9;
  const int steps = 100;
  integratePeriod(sys, x, 0.0, period, steps, ws);  // warm
  const size_t before = gAllocCount.load();
  integratePeriod(sys, x, period, period, steps, ws);
  EXPECT_EQ(gAllocCount.load() - before, 0u);
}

TEST(Allocation, LptvDirectStoresNoInjectionEnvelopes) {
  // solution() streams every source's injection envelope b_{s,k} from the
  // orbit instead of storing it. Beyond a one-source solve on the same
  // orbit (step factors, closure sweep, closure; an analysis refuses zero
  // sources), each further source may cost its M envelope vectors plus
  // O(1), and the pool O(slots) scratch: ns*M + O(ns + slots). A dense
  // ns x (M+1) store with per-source bf/bq temporaries costs about 4*ns*M.
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.rows = 8;  // 68 MNA unknowns
  buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);
  PssOptions popt;
  popt.stepsPerPeriod = 60;
  const PssResult pss = solvePssDriven(sys, copt.period, popt);
  const size_t m = pss.stepCount();
  const auto sources = sys.collectSources();
  const size_t ns = 32;
  ASSERT_GE(sources.size(), ns + 1);

  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    // The source list is copied before the count starts.
    const auto allocations = [&](size_t count) {
      std::vector<InjectionSource> srcs(sources.begin(),
                                        sources.begin() + count);
      const size_t before = gAllocCount.load();
      PnoiseAnalysis(sys, pss, std::move(srcs), PnoiseOptions{p}).solution();
      return gAllocCount.load() - before;
    };
    allocations(ns + 1);  // warm: one-time lazy state stays out of the count
    const size_t fixed = allocations(1);
    const size_t withSources = allocations(ns + 1);
    const size_t slots = p ? p->jobCount() : 1;
    EXPECT_LE(withSources - fixed, ns * m + 4 * ns + 16 * slots)
        << "slots=" << slots << " M=" << m;
  }
}

TEST(Allocation, ScalarReadoutsStoreNoEnvelopes) {
  // A sideband readout (one cycle sweep) and an edge readout (two
  // envelope samples of one output, from a direct pass truncated at the
  // crossing) store no envelope. From PnoiseAnalysis construction through
  // both, allocations stay linear in ns + M + slots: the step factors per
  // grid step, O(1) per source, scratch per slot. Storing the
  // envelopes would cost a vector per (source, step), ns * M.
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.rows = 8;  // 68 MNA unknowns
  const auto chain = buildInverterChain(nl, kit, copt);
  MnaSystem sys(nl);
  const int out = nl.nodeIndex(chain.taps.back());
  const auto sources = sys.collectSources();
  ASSERT_GE(sources.size(), 64u);

  ThreadPool pool(4);
  for (int steps : {60, 120}) {
    PssOptions popt;
    popt.stepsPerPeriod = steps;
    const PssResult pss = solvePssDriven(sys, copt.period, popt);
    const size_t m = pss.stepCount();
    const size_t edge[] = {m / 2, m / 2 + 1};
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      // The source list is copied before the count starts.
      const auto allocations = [&](size_t ns) {
        std::vector<InjectionSource> srcs(sources.begin(),
                                          sources.begin() + ns);
        const size_t before = gAllocCount.load();
        PnoiseOptions opt;
        opt.pool = p;
        PnoiseAnalysis pn(sys, pss, std::move(srcs), opt);
        pn.run();
        pn.sideband(out, 1);
        pn.samples(out, edge);
        return gAllocCount.load() - before;
      };
      allocations(8);  // warm: one-time lazy state stays out of the count
      const size_t slots = p ? p->jobCount() : 1;
      const size_t few = allocations(8);
      const size_t many = allocations(64);
      const std::string label =
          "M=" + std::to_string(m) + " slots=" + std::to_string(slots);
      // About 600 + 11 M + 25 slots on this fixture, nothing per source.
      EXPECT_LE(many, 1024 + 24 * m + 4 * 64 + 64 * slots) << label;
      // No term grows with ns * M: a source costs O(1) allocations. (Slot
      // scratch is sized lazily by whichever slots the pool schedules, so
      // `many` may come out below `few`; written as a sum, not a size_t
      // difference that would wrap.)
      EXPECT_LE(many, few + 2 * (64 - 8) + 8 * slots) << label;
    }
  }
}

}  // namespace
}  // namespace psmn
