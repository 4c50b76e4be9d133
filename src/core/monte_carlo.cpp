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

/// Applies sample k's draw, runs the measurement, and clears the deltas on
/// every exit, a throwing measurement included. Returns false on
/// SampleFailure.
bool evalSample(const MnaSystem& sys, Netlist& nl,
                const std::vector<Netlist::MismatchRef>& params,
                const CorrelatedMismatch* corr, uint64_t seed, size_t k,
                const McMeasure& measure, RealVector& out) {
  struct ClearOnExit {
    Netlist& nl;
    ~ClearOnExit() { nl.clearMismatch(); }
  } clear{nl};
  applyMismatchSample(params, corr, seed, k);
  try {
    out = measure(sys);
  } catch (const SampleFailure&) {
    return false;
  }
  return true;
}

/// True when two netlists flatten to the same mismatch parameters (names,
/// kinds and sigmas, in order), so sample k draws the same deltas on both.
bool sameFlattening(const std::vector<Netlist::MismatchRef>& a,
                    const std::vector<Netlist::MismatchRef>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Netlist::MismatchRef& x,
                       const Netlist::MismatchRef& y) {
                      return x.param.name == y.param.name &&
                             x.param.kind == y.param.kind &&
                             x.param.sigma == y.param.sigma;
                    });
}

}  // namespace

Real McResult::correlationBetween(size_t i, size_t j) const {
  PSMN_CHECK(!samples.empty(), "sample matrix was not kept");
  CorrelationAccumulator acc;
  for (const auto& row : samples) acc.add(row.at(i), row.at(j));
  return acc.correlation();
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

  // One execution slot per netlist: the factory's private netlists when
  // the samples may fan out, otherwise the primary netlist alone, which
  // ThreadPool(1) runs inline on the calling thread. Each sample's stream
  // is seeded by its index, so the draw never depends on the slot.
  struct SlotContext {
    std::unique_ptr<Netlist> ownedNl;
    std::unique_ptr<MnaSystem> ownedSys;
    Netlist* nl = nullptr;
    const MnaSystem* sys = nullptr;
    std::vector<Netlist::MismatchRef> params;
  };
  Netlist& primary = const_cast<Netlist&>(sys_->netlist());
  const auto primaryParams = primary.mismatchParams();
  const bool fanOut = jobs > 1 && factory_ && corr_ == nullptr;
  std::vector<SlotContext> slots(fanOut ? jobs : 1);
  if (fanOut) {
    for (auto& slot : slots) {
      slot.ownedNl = factory_();
      PSMN_CHECK(slot.ownedNl != nullptr, "netlist factory returned null");
      slot.ownedNl->finalize();
      slot.ownedSys = std::make_unique<MnaSystem>(*slot.ownedNl);
      slot.nl = slot.ownedNl.get();
      slot.sys = slot.ownedSys.get();
      slot.params = slot.nl->mismatchParams();
      PSMN_CHECK(slot.sys->size() == sys_->size() &&
                     sameFlattening(slot.params, primaryParams),
                 "netlist factory built a different circuit");
    }
  } else {
    slots[0].nl = &primary;
    slots[0].sys = sys_;
    slots[0].params = primaryParams;
  }

  // Rows are buffered per sample and streamed into the statistics in
  // sample order after the fan-out, so the accumulation is independent of
  // evaluation order and bit-identical for every jobs count.
  ThreadPool pool(slots.size());
  std::vector<RealVector> rows(opt_.samples);
  std::vector<char> ok(opt_.samples, 0);
  const size_t chunk = std::max<size_t>(1, opt_.samples / (slots.size() * 4));
  pool.parallelFor(
      opt_.samples, chunk, [&](size_t b, size_t e, size_t slotIdx) {
        SlotContext& slot = slots[slotIdx];
        for (size_t k = b; k < e; ++k) {
          ok[k] = evalSample(*slot.sys, *slot.nl, slot.params, corr_,
                             opt_.seed, k, measure, rows[k]);
        }
      });
  for (size_t k = 0; k < opt_.samples; ++k) {
    if (!ok[k]) {
      ++result.failedSamples;
      continue;
    }
    PSMN_CHECK(rows[k].size() == result.names.size(),
               "measurement count mismatch");
    for (size_t j = 0; j < rows[k].size(); ++j) {
      result.moments[j].add(rows[k][j]);
    }
    if (opt_.keepSamples) result.samples.push_back(std::move(rows[k]));
  }
  result.elapsedSeconds =
      std::chrono::duration<Real>(std::chrono::steady_clock::now() - tStart)
          .count();
  return result;
}

}  // namespace psmn
