// Parallel execution runtime tests: thread-pool coverage and failure
// semantics, and the runtime's core promise — scenario sweeps, parallel
// multi-RHS sensitivity, and Monte-Carlo batches are bit-identical across
// jobs counts (1/2/8) and across repeated runs with the same seed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stdcell.hpp"
#include "core/monte_carlo.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"
#include "runtime/scenario_sweep.hpp"
#include "runtime/thread_pool.hpp"

namespace psmn {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobCount(), 4u);
  constexpr size_t kN = 1013;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallelFor(kN, 7, [&](size_t b, size_t e, size_t slot) {
    EXPECT_LT(slot, pool.jobCount());
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SingleJobRunsInlineAndZeroNIsANoop) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobCount(), 1u);
  size_t calls = 0;
  pool.parallelFor(10, 4, [&](size_t b, size_t e, size_t slot) {
    EXPECT_EQ(slot, 0u);
    calls += e - b;
  });
  EXPECT_EQ(calls, 10u);
  pool.parallelFor(0, 4, [&](size_t, size_t, size_t) { FAIL(); });
}

TEST(ThreadPool, LowestFailedChunkWinsDeterministically) {
  ThreadPool pool(8);
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      pool.parallelFor(100, 10, [](size_t b, size_t, size_t) {
        const size_t c = b / 10;
        if (c == 3 || c == 7) {
          throw Error("chunk " + std::to_string(c) + " failed");
        }
      });
      FAIL() << "expected an exception";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "chunk 3 failed");
    }
  }
}

TEST(ThreadPool, IdleSlotStealsQueuedChunksFromABusyOne) {
  // Two slots, four chunks: the block partition gives slot 0 chunks {0,1}
  // and slot 1 chunks {2,3}. Chunk 0 blocks its owner until every other
  // chunk has run — chunk 1 can then only run if slot 1 STEALS it from
  // slot 0's deque. Per-slot deques without stealing would leave chunk 1
  // stranded behind chunk 0 and time out here.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  std::atomic<int> timeouts{0};
  pool.parallelFor(4, 1, [&](size_t b, size_t, size_t) {
    if (b == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (finished.load() < 3) {
        if (std::chrono::steady_clock::now() > deadline) {
          timeouts.fetch_add(1);
          break;
        }
        std::this_thread::yield();
      }
    }
    finished.fetch_add(1);
  });
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(finished.load(), 4);
}

TEST(ThreadPool, StolenChunkExceptionPropagatesAsLowestFailedChunk) {
  // Force the failing chunk to run on a thief: slot 0 owns chunks {0..3}
  // but sits in chunk 0 until chunk 3 has run, so chunk 3 — which throws —
  // is stolen and fails on slot 1. The error must still surface as the
  // lowest failed chunk, exactly as if its owner had run it.
  ThreadPool pool(2);
  for (int repeat = 0; repeat < 10; ++repeat) {
    std::atomic<bool> chunk3Ran{false};
    try {
      pool.parallelFor(80, 10, [&](size_t b, size_t, size_t) {
        const size_t c = b / 10;
        if (c == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!chunk3Ran.load() &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        }
        if (c == 3) {
          chunk3Ran.store(true);
          throw Error("chunk 3 failed");
        }
        if (c == 5) throw Error("chunk 5 failed");
      });
      FAIL() << "expected an exception";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "chunk 3 failed");
    }
  }
}

TEST(ThreadPool, NestedParallelForCompletesInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallelFor(8, 1, [&](size_t b, size_t, size_t) {
    // Nested loop on the same (busy) pool: must run inline, not deadlock.
    pool.parallelFor(8, 2, [&](size_t ib, size_t ie, size_t) {
      for (size_t i = ib; i < ie; ++i) hits[b * 8 + i].fetch_add(1);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, DifferentPoolFansOutFromAWorkerThread) {
  // A worker of pool A driving pool B must still fan out on B — only
  // SAME-pool nesting serializes (B's workers drain their own queue, so
  // no deadlock). The MC-batch-inside-a-sweep path relies on this. The
  // check is concurrency, not timing: each inner body spins until both
  // inner chunks have *started*, which can only happen when two inner
  // slots run them concurrently; a serialized inner loop would time out.
  ThreadPool outer(2);
  std::atomic<int> overlapFailures{0};
  outer.parallelFor(2, 1, [&](size_t, size_t, size_t) {
    ThreadPool inner(2);
    std::atomic<int> started{0};
    inner.parallelFor(2, 1, [&](size_t, size_t, size_t) {
      started.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 2) {
        if (std::chrono::steady_clock::now() > deadline) {
          overlapFailures.fetch_add(1);
          break;
        }
        std::this_thread::yield();
      }
    });
  });
  EXPECT_EQ(overlapFailures.load(), 0);
}

// ------------------------------------------------- fixtures for the sweeps

std::unique_ptr<Netlist> makeChainNetlist(int stages, int rows, Real cLoad) {
  auto nl = std::make_unique<Netlist>();
  const ProcessKit kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = stages;
  copt.rows = rows;
  copt.cLoad = cLoad;
  buildInverterChain(*nl, kit, copt);
  return nl;
}

std::unique_ptr<Netlist> makeRcDividerNetlist(Real r2Sigma = 10.0) {
  auto nl = std::make_unique<Netlist>();
  const NodeId top = nl->node("top");
  const NodeId mid = nl->node("mid");
  nl->add<VSource>("V1", top, kGround,
                   SourceWave::pulse(0.0, 2.0, 1e-9, 0.5e-9, 0.5e-9, 6e-9,
                                     20e-9),
                   *nl);
  nl->add<Resistor>("R1", top, mid, 1e3, *nl, /*sigma=*/10.0);
  nl->add<Resistor>("R2", mid, kGround, 1e3, *nl, /*sigma=*/r2Sigma);
  nl->add<Capacitor>("C1", mid, kGround, 1e-12, *nl);
  return nl;
}

// ---------------------------------------------------------- scenario sweep

std::vector<SweepScenario> chainTransientScenarios() {
  std::vector<SweepScenario> scenarios;
  for (int i = 0; i < 6; ++i) {
    SweepScenario sc;
    sc.name = "cload_" + std::to_string(i);
    const Real cLoad = 2e-15 * (i + 1);
    sc.make = [cLoad] { return makeChainNetlist(4, 1, cLoad); };
    sc.outNode = "ch4";  // last tap of the chain (see buildInverterChain)
    sc.t0 = 0.0;
    sc.t1 = 2e-9;
    sc.dt = 20e-12;
    scenarios.push_back(std::move(sc));
  }
  return scenarios;
}

TEST(ScenarioSweep, InputOrderAndBitIdenticalAcrossJobCounts) {
  const auto scenarios = chainTransientScenarios();
  ThreadPool p1(1), p2(2), p8(8);
  const auto r1 = runScenarioSweep(scenarios, p1);
  const auto r2 = runScenarioSweep(scenarios, p2);
  const auto r8 = runScenarioSweep(scenarios, p8);
  const auto r2again = runScenarioSweep(scenarios, p2);
  ASSERT_EQ(r1.size(), scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(r1[i].name, scenarios[i].name);
    EXPECT_EQ(r1[i].index, i);
    ASSERT_TRUE(r1[i].ok) << r1[i].error;
    ASSERT_TRUE(r2[i].ok) << r2[i].error;
    ASSERT_TRUE(r8[i].ok) << r8[i].error;
    ASSERT_EQ(r1[i].waveform.size(), r2[i].waveform.size());
    ASSERT_EQ(r1[i].waveform.size(), r8[i].waveform.size());
    for (size_t k = 0; k < r1[i].waveform.size(); ++k) {
      EXPECT_EQ(r1[i].waveform[k], r2[i].waveform[k]);
      EXPECT_EQ(r1[i].waveform[k], r8[i].waveform[k]);
      EXPECT_EQ(r1[i].waveform[k], r2again[i].waveform[k]);
    }
  }
}

TEST(ScenarioSweep, RaggedMixBitIdenticalAcrossJobCounts) {
  // A deliberately ragged scenario mix — mostly small chains, one slow
  // outlier (8x2, ~4x the unknowns and twice the window) sitting at a
  // block boundary so a work-stealing schedule actually redistributes the
  // small scenarios queued behind it. Output must not depend on who ran
  // what: bit-identical across jobs counts and repeats.
  std::vector<SweepScenario> scenarios;
  const int stageMix[] = {2, 6, 2, 10, 2, 4, 2, 8, 2, 4, 6, 2};
  for (size_t i = 0; i < std::size(stageMix); ++i) {
    SweepScenario sc;
    sc.name = "ragged_" + std::to_string(i);
    const int stages = stageMix[i];
    const bool outlier = (i == 3);
    sc.make = [stages, outlier] {
      return makeChainNetlist(stages, outlier ? 2 : 1, 4e-15);
    };
    sc.outNode = outlier ? "chr1" + std::to_string(stages)
                         : "ch" + std::to_string(stages);
    sc.t1 = outlier ? 4e-9 : 2e-9;
    sc.dt = 20e-12;
    scenarios.push_back(std::move(sc));
  }
  ThreadPool p1(1), p2(2), p8(8);
  const auto r1 = runScenarioSweep(scenarios, p1);
  const auto r2 = runScenarioSweep(scenarios, p2);
  const auto r8 = runScenarioSweep(scenarios, p8);
  const auto r8again = runScenarioSweep(scenarios, p8);
  ASSERT_EQ(r1.size(), scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_TRUE(r1[i].ok) << r1[i].error;
    ASSERT_TRUE(r2[i].ok) << r2[i].error;
    ASSERT_TRUE(r8[i].ok) << r8[i].error;
    ASSERT_EQ(r1[i].waveform.size(), r2[i].waveform.size());
    ASSERT_EQ(r1[i].waveform.size(), r8[i].waveform.size());
    for (size_t k = 0; k < r1[i].waveform.size(); ++k) {
      EXPECT_EQ(r1[i].waveform[k], r2[i].waveform[k]) << i << " " << k;
      EXPECT_EQ(r1[i].waveform[k], r8[i].waveform[k]) << i << " " << k;
      EXPECT_EQ(r1[i].waveform[k], r8again[i].waveform[k]) << i << " " << k;
    }
  }
}

TEST(ScenarioSweep, FailuresAreReportedInPlaceNotThrown) {
  auto scenarios = chainTransientScenarios();
  scenarios[2].outNode = "no_such_node";  // deterministic per-scenario death
  ThreadPool pool(4);
  const auto results = runScenarioSweep(scenarios, pool);
  ASSERT_EQ(results.size(), scenarios.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(results[i].ok);
      EXPECT_NE(results[i].error.find("no_such_node"), std::string::npos)
          << results[i].error;
    } else {
      EXPECT_TRUE(results[i].ok) << results[i].error;
    }
  }
}

// ------------------------------------------- parallel multi-RHS sensitivity

void expectSensitivityBitIdentical(int stages, int rows) {
  SCOPED_TRACE(std::to_string(stages) + "x" + std::to_string(rows) + " chain");
  auto nl = makeChainNetlist(stages, rows, 5e-15);
  nl->finalize();
  MnaSystem sys(*nl);
  const auto sources = sys.collectSources();
  ASSERT_GE(sources.size(), 8u);

  TranOptions opt;
  opt.method = IntegrationMethod::kBackwardEuler;
  const auto serial =
      runTransientSensitivity(sys, 0.0, 1e-9, 25e-12, sources, opt);

  for (size_t jobs : {2u, 8u}) {
    ThreadPool pool(jobs);
    TranOptions popt = opt;
    popt.pool = &pool;
    const auto par =
        runTransientSensitivity(sys, 0.0, 1e-9, 25e-12, sources, popt);
    ASSERT_EQ(par.times.size(), serial.times.size());
    ASSERT_EQ(par.sens.size(), serial.sens.size());
    for (size_t i = 0; i < serial.sens.size(); ++i) {
      for (size_t k = 0; k < serial.sens[i].size(); ++k) {
        for (size_t r = 0; r < serial.sens[i][k].size(); ++r) {
          // Bit-identical, not just close: each column's arithmetic is
          // independent of the partition.
          EXPECT_EQ(par.sens[i][k][r], serial.sens[i][k][r])
              << "jobs=" << jobs << " src=" << i << " k=" << k;
        }
      }
    }
  }
}

TEST(ParallelSensitivity, BitIdenticalAcrossJobCounts) {
  // A 4-stage single chain (ns smaller than 8 jobs' worth of columns per
  // slot) and a 6-stage, 2-row one.
  expectSensitivityBitIdentical(4, 1);
  expectSensitivityBitIdentical(6, 2);
}

// --------------------------------------------------- Monte-Carlo batches

RealVector measureMidFinal(const MnaSystem& s) {
  TranOptions topt;
  topt.method = IntegrationMethod::kBackwardEuler;
  topt.storeStates = false;
  const TransientResult tr = runTransient(s, 0.0, 2e-9, 50e-12, topt);
  const int mid = s.netlist().nodeIndex("mid");
  // Deterministic per-sample failure: extreme draws are rejected the way a
  // production measurement rejects a non-settling corner. Exercises the
  // failure accounting on both the serial and parallel paths.
  if (tr.finalState[mid] > 0.755) {
    throw SampleFailure("mid overshoot");
  }
  return {tr.finalState[mid]};
}

TEST(ParallelMonteCarlo, BitIdenticalAcrossJobCountsAndRepeats) {
  McOptions base;
  base.samples = 48;
  base.seed = 41;

  auto runWithJobs = [&](size_t jobs) {
    auto nl = makeRcDividerNetlist();
    nl->finalize();
    MnaSystem sys(*nl);
    McOptions opt = base;
    opt.jobs = jobs;
    MonteCarloEngine mc(sys, opt);
    mc.setNetlistFactory([] { return makeRcDividerNetlist(); });
    return mc.run({"mid"}, measureMidFinal);
  };

  const McResult serial = runWithJobs(1);
  // The failure threshold must actually trip for this seed, or the
  // accounting parity below tests nothing.
  ASSERT_GT(serial.failedSamples, 0u);
  ASSERT_GT(serial.samples.size(), 0u);

  for (size_t jobs : {2u, 8u}) {
    const McResult par = runWithJobs(jobs);
    EXPECT_EQ(par.failedSamples, serial.failedSamples) << jobs;
    ASSERT_EQ(par.samples.size(), serial.samples.size()) << jobs;
    for (size_t k = 0; k < serial.samples.size(); ++k) {
      EXPECT_EQ(par.samples[k][0], serial.samples[k][0]) << k;
    }
    EXPECT_EQ(par.meanOf(0), serial.meanOf(0));
    EXPECT_EQ(par.sigma(0), serial.sigma(0));
  }
  const McResult repeat = runWithJobs(8);
  EXPECT_EQ(repeat.meanOf(0), runWithJobs(8).meanOf(0));
}

TEST(ParallelMonteCarlo, FactoryMustFlattenLikeThePrimary) {
  // The factory builds the primary's topology with R2's sigma doubled, as
  // a factory that missed the primary's process-kit scale would: the same
  // unknowns and parameter names, but sample k would draw other deltas at
  // jobs > 1 than on the primary at jobs = 1. run() must refuse it before
  // any sample runs.
  auto nl = makeRcDividerNetlist();
  nl->finalize();
  MnaSystem sys(*nl);
  McOptions opt;
  opt.samples = 8;
  opt.jobs = 2;
  MonteCarloEngine mc(sys, opt);
  mc.setNetlistFactory([] { return makeRcDividerNetlist(20.0); });
  std::atomic<size_t> calls{0};
  EXPECT_THROW(mc.run({"mid"},
                      [&](const MnaSystem& s) {
                        ++calls;
                        return measureMidFinal(s);
                      }),
               Error);
  EXPECT_EQ(calls.load(), 0u);
}

}  // namespace
}  // namespace psmn
