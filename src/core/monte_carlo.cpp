#include "core/monte_carlo.hpp"

#include <algorithm>

#include "runtime/thread_pool.hpp"
#include "util/telemetry.hpp"

namespace psmn {

void applyMismatchSample(const std::vector<Netlist::MismatchRef>& params,
                         const CorrelatedMismatch* corr, uint64_t seed,
                         size_t k) {
  Rng rng = Rng::forSample(seed, k);
  // Independent parameters first (a fixed draw order keeps the stream
  // deterministic), then the correlated groups.
  for (const auto& p : params) {
    if (corr && corr->covers(p.device, p.index)) continue;
    Real delta = rng.gaussian(0.0, p.param.sigma);
    // Relative current-factor mismatch cannot physically reach -100%;
    // truncate the Gaussian tail the way production MC flows do. Only
    // matters for extreme severity sweeps (Fig. 11/12 at several x the
    // process mismatch).
    if (p.param.kind == MismatchKind::kBetaRel) {
      delta = std::max(delta, -0.95);
    }
    p.device->setMismatchDelta(p.index, delta);
  }
  if (corr) corr->applySample(rng);
}

namespace {

/// Applies sample k's draw, runs the measurement, and clears the deltas.
/// Returns false on SampleFailure.
bool evalSample(const MnaSystem& sys, Netlist& nl,
                const std::vector<Netlist::MismatchRef>& params,
                const CorrelatedMismatch* corr, uint64_t seed, size_t k,
                const McMeasure& measure, RealVector& out) {
  applyMismatchSample(params, corr, seed, k);
  bool ok = true;
  try {
    out = measure(sys);
  } catch (const SampleFailure&) {
    ok = false;
  }
  nl.clearMismatch();
  return ok;
}

}  // namespace

Real McResult::correlationBetween(size_t i, size_t j) const {
  PSMN_CHECK(!samples.empty(), "sample matrix was not kept");
  CorrelationAccumulator acc;
  for (const auto& row : samples) acc.add(row.at(i), row.at(j));
  return acc.correlation();
}

RealVector McResult::column(size_t j) const {
  PSMN_CHECK(!samples.empty(), "sample matrix was not kept");
  RealVector out;
  out.reserve(samples.size());
  for (const auto& row : samples) out.push_back(row.at(j));
  return out;
}

MonteCarloEngine::MonteCarloEngine(const MnaSystem& sys, McOptions opt)
    : sys_(&sys), opt_(opt) {}

McResult MonteCarloEngine::run(std::vector<std::string> names,
                               const McMeasure& measure) {
  TraceSpan span(Phase::kMc, "monte_carlo");
  McResult result;
  result.names = std::move(names);
  result.moments.assign(result.names.size(), MomentAccumulator{});

  const auto tStart = std::chrono::steady_clock::now();
  const size_t jobs = std::min(
      opt_.jobs == 0 ? ThreadPool::hardwareJobs() : opt_.jobs, opt_.samples);

  // Streams one sample row into the statistics; called in sample order by
  // both paths, so the accumulation is independent of evaluation order.
  const auto accumulate = [&](bool ok, RealVector& row) {
    if (!ok) {
      ++result.failedSamples;
      return;
    }
    PSMN_CHECK(row.size() == result.names.size(),
               "measurement count mismatch");
    for (size_t j = 0; j < row.size(); ++j) result.moments[j].add(row[j]);
    if (opt_.keepSamples) result.samples.push_back(std::move(row));
  };

  if (jobs > 1 && factory_ && corr_ == nullptr) {
    // Parallel path: one private (netlist, system) per execution slot; the
    // batches partition the sample index range, and each sample's stream
    // is seeded by its index, so the draw never depends on the partition.
    ThreadPool pool(jobs);
    struct SlotContext {
      std::unique_ptr<Netlist> nl;
      std::unique_ptr<MnaSystem> sys;
      std::vector<Netlist::MismatchRef> params;
    };
    std::vector<SlotContext> slots(pool.jobCount());
    for (auto& slot : slots) {
      slot.nl = factory_();
      PSMN_CHECK(slot.nl != nullptr, "netlist factory returned null");
      slot.nl->finalize();
      slot.sys = std::make_unique<MnaSystem>(*slot.nl);
      PSMN_CHECK(slot.sys->size() == sys_->size(),
                 "netlist factory built a different circuit");
      slot.params = slot.nl->mismatchParams();
    }
    // The fan-out buffers one row per sample so the post-pass can stream
    // them in index order (O(samples) extra memory, parallel path only).
    std::vector<RealVector> rows(opt_.samples);
    std::vector<char> ok(opt_.samples, 0);
    const size_t chunk =
        std::max<size_t>(1, opt_.samples / (pool.jobCount() * 4));
    pool.parallelFor(
        opt_.samples, chunk, [&](size_t b, size_t e, size_t slotIdx) {
          SlotContext& slot = slots[slotIdx];
          for (size_t k = b; k < e; ++k) {
            ok[k] = evalSample(*slot.sys, *slot.nl, slot.params, nullptr,
                               opt_.seed, k, measure, rows[k]);
          }
        });
    for (size_t k = 0; k < opt_.samples; ++k) accumulate(ok[k], rows[k]);
  } else {
    // Serial path: one row in flight, as before this engine learned to
    // fan out.
    Netlist& nl = const_cast<Netlist&>(sys_->netlist());
    const auto params = nl.mismatchParams();
    RealVector row;
    for (size_t k = 0; k < opt_.samples; ++k) {
      const bool ok =
          evalSample(*sys_, nl, params, corr_, opt_.seed, k, measure, row);
      accumulate(ok, row);
    }
  }
  result.elapsedSeconds =
      std::chrono::duration<Real>(std::chrono::steady_clock::now() - tStart)
          .count();
  return result;
}

}  // namespace psmn
