// Monte-Carlo mismatch analysis — the baseline the paper benchmarks
// against (SS VI, Table II).
//
// Each sample draws every mismatch parameter from N(0, sigma^2) (or from a
// correlated model, SS III-C), applies the deltas to the devices, runs the
// caller's measurement (typically a transient simulation + waveform
// measurement), and accumulates statistics. Sampling is deterministic per
// (seed, sampleIndex) so results are reproducible.
#pragma once

#include <chrono>
#include <functional>

#include "core/correlated_mismatch.hpp"
#include "engine/mna.hpp"
#include "numeric/rng.hpp"
#include "numeric/statistics.hpp"

namespace psmn {

struct McOptions {
  size_t samples = 1000;
  uint64_t seed = 1;
  bool keepSamples = true;  // store the sample matrix (correlations)
  /// Concurrent sample evaluations (0 -> hardware). Values above 1 take
  /// effect only when a netlist factory is installed (each slot needs a
  /// private netlist to perturb) and no correlated-mismatch model is set
  /// (its device references are bound to the primary netlist); otherwise
  /// the primary netlist is the one slot. Because every sample's RNG
  /// stream is derived from (seed, sampleIndex) and the statistics are
  /// accumulated in sample order after the fan-out, results are
  /// bit-identical for every jobs count.
  size_t jobs = 1;
};

/// Measurement callback: the netlist already carries this sample's mismatch
/// deltas; returns one value per measured quantity. Throwing SampleFailure
/// skips the sample (counted separately); any other exception ends the run
/// and propagates. Either way the sample's deltas are cleared before the
/// netlist is reused or handed back. With jobs > 1 the callback runs
/// concurrently on different MnaSystems (one per slot), so it must not
/// write captured state — measure through the passed-in system only.
using McMeasure = std::function<RealVector(const MnaSystem&)>;

class SampleFailure : public Error {
 public:
  explicit SampleFailure(const std::string& what) : Error(what) {}
};

/// Applies sample `k`'s mismatch draw to `params` — THE definition of the
/// deterministic (seed, index) stream: independent parameters first in
/// flattening order (kBetaRel truncated at -95%, the physical floor of a
/// relative current factor), then the correlated groups. Shared by the MC
/// engine and the netlist_runner sweep so scenario k reproduces MC
/// sample k exactly.
void applyMismatchSample(const std::vector<Netlist::MismatchRef>& params,
                         const CorrelatedMismatch* corr, uint64_t seed,
                         size_t k);

struct McResult {
  std::vector<std::string> names;
  std::vector<MomentAccumulator> moments;
  /// samples[k][j] = measurement j of sample k (when keepSamples).
  std::vector<RealVector> samples;
  size_t failedSamples = 0;
  Real elapsedSeconds = 0.0;

  Real sigma(size_t j = 0) const { return moments.at(j).stddev(); }
  Real meanOf(size_t j = 0) const { return moments.at(j).mean(); }
  /// Pearson correlation between two measured quantities.
  Real correlationBetween(size_t i, size_t j) const;
};

/// Rebuilds the engine's circuit from scratch — a fanned-out run calls it
/// once per execution slot to give every thread a private netlist. It MUST
/// construct the same circuit as the engine's primary netlist: run() throws
/// Error unless every factory netlist has the primary's unknown count and
/// flattens to the primary's mismatch parameters (names, kinds and sigmas,
/// in order), so that sample k draws the same deltas on every slot.
using NetlistFactory = std::function<std::unique_ptr<Netlist>()>;

class MonteCarloEngine {
 public:
  MonteCarloEngine(const MnaSystem& sys, McOptions opt = {});

  /// Optional correlated-mismatch model; parameters covered by it are drawn
  /// jointly, the rest independently. Keeps every sample on the primary
  /// netlist (see McOptions::jobs).
  void setCorrelatedMismatch(const CorrelatedMismatch* corr) { corr_ = corr; }

  /// Lets the samples fan out: each execution slot evaluates its samples
  /// on a private netlist built by `factory`.
  void setNetlistFactory(NetlistFactory factory) {
    factory_ = std::move(factory);
  }

  McResult run(std::vector<std::string> names, const McMeasure& measure);

 private:
  const MnaSystem* sys_;
  McOptions opt_;
  const CorrelatedMismatch* corr_ = nullptr;
  NetlistFactory factory_;
};

}  // namespace psmn
