// The benchmark's circuits, each with the three things the workloads ask of
// it: a pseudo-noise sigma estimate through the library's public wrapper, the
// same estimate issued as the wrapper's separate calls with a span around
// each (the traced path), and the Monte-Carlo measurement callback. The
// estimate options and the callbacks follow bench/bench_table2_summary.cpp
// (logic path, ring, comparator) and tests/test_bjt.cpp (op-amp follower).
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/bjt_opamp.hpp"
#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/monte_carlo.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"
#include "meas/measure.hpp"
#include "rf/pss.hpp"
#include "runtime/thread_pool.hpp"
#include "tracing.hpp"
#include "util/telemetry.hpp"

namespace perfbench {

using namespace psmn;

/// Where a traced estimate records its spans, and how it reports the
/// counters of each call (so the harness can price PSS-side work with real
/// unit costs and LPTV-side work with complex ones).
struct TraceCtx {
  SpanRecorder* rec = nullptr;
  int parent = -1;
  int round = -1;
  /// Called after each library call with the call's kind ("real" or
  /// "complex"); the harness snapshots the telemetry registry there.
  std::function<void(bool complexKind)> mark;
  /// Sum of PssResult::shootingIterations and of LPTV sources seen.
  uint64_t shootingIters = 0;
  uint64_t lptvSources = 0;
  void after(bool complexKind) const {
    if (mark) mark(complexKind);
  }
};

/// Spans and telemetry slots for Monte-Carlo callbacks, which run on the
/// engine's own worker threads. Null when the round is untraced.
struct McProbe {
  SpanRecorder* rec = nullptr;      // spans (timed traced rounds)
  TelemetryRegistry* reg = nullptr; // counters (count pass)
  SlotPool* slots = nullptr;
  int parent = -1;
  int round = -1;
};

/// A point on a workload's own trajectory at which the harness replays
/// MNA evaluation and LU kernels to price them.
struct JacobianPoint {
  RealVector x;
  Real t = 0.0;
  Real h = 0.0;
};

class Circuit {
 public:
  virtual ~Circuit() = default;
  Circuit(const Circuit&) = delete;
  Circuit& operator=(const Circuit&) = delete;

  virtual const char* name() const = 0;
  /// Pseudo-noise sigma through TransientMismatchAnalysis (or the
  /// sensitivity engine for the op-amp): the untraced path.
  virtual Real estimate() = 0;
  /// The same estimate as separate public calls with a span around each;
  /// must reproduce estimate() exactly.
  virtual Real estimateTraced(TraceCtx& ctx) = 0;
  /// Monte-Carlo callback; the netlist carries the sample's draw. Runs
  /// sample() inside an "mc.sample" span on the thread's own slot.
  RealVector measure(const MnaSystem& s, McProbe* probe) const;
  /// Builds a fresh copy of the circuit (MonteCarloEngine's factory).
  virtual std::unique_ptr<Netlist> build() const = 0;
  /// Trajectory points for the unit-cost replay of the pseudo-noise path
  /// (orbit) and of the Monte-Carlo path (nominal transient).
  virtual std::vector<JacobianPoint> pnPoints() = 0;
  virtual std::vector<JacobianPoint> mcPoints() = 0;
  /// Execution runtime for the estimate (only the sparse chain uses one).
  virtual void setPool(ThreadPool* /*pool*/) {}

  const MnaSystem& sys() const { return *sys_; }

 protected:
  /// The measurement of one Monte-Carlo sample; `track` names the trace
  /// track of the spans it records through probed().
  virtual RealVector sample(const MnaSystem& s, McProbe* probe,
                            uint32_t track) const = 0;

  Circuit() = default;
  void finish() { sys_ = std::make_unique<MnaSystem>(*nl_); }

  std::unique_ptr<Netlist> nl_ = std::make_unique<Netlist>();
  std::unique_ptr<MnaSystem> sys_;
};

// ------------------------------------------------------------ readouts
// The wrapper's readouts, re-issued on the split calls' results. Each is
// the arithmetic of the matching TransientMismatchAnalysis method, so the
// traced sigma equals the untraced one.

inline Real sigmaOf(const std::vector<Real>& scaled) {
  Real acc = 0.0;
  for (Real s : scaled) acc += s * s;
  return std::sqrt(acc);
}

inline Real dcSigma(const PnoiseAnalysis& pn, int out) {
  const PnoiseSideband sb = pn.sideband(out, 0);
  std::vector<Real> scaled;
  for (size_t i = 0; i < pn.sources().size(); ++i) {
    const Real psd = pn.sources()[i].psd(sb.offsetFreq);
    scaled.push_back(sb.transfer[i].real() * std::sqrt(psd));
  }
  return sigmaOf(scaled);
}

inline Real frequencySigma(const PnoiseAnalysis& pn, const PssResult& pss,
                           int out) {
  const PnoiseSideband sb = pn.sideband(out, 1);
  const Cplx v1 = pss.fourier(out, 1);
  std::vector<Real> scaled;
  for (size_t i = 0; i < pn.sources().size(); ++i) {
    const Real psd = pn.sources()[i].psd(sb.offsetFreq);
    const Real s = (sb.transfer[i] * sb.offsetFreq / v1).real();
    scaled.push_back(s * std::sqrt(psd));
  }
  return sigmaOf(scaled);
}

inline Real edgeDelaySigma(const PnoiseAnalysis& pn, const PssResult& ps,
                           int out, Real level, int direction) {
  const size_t m = ps.stepCount();
  const RealVector w = ps.waveform(out);
  int found = -1;
  Real frac = 0.0;
  for (size_t k = 0; k < m && found < 0; ++k) {
    const Real y0 = w[k];
    const Real y1 = w[(k + 1) % m];
    const bool rising = y0 < level && y1 >= level;
    const bool falling = y0 > level && y1 <= level;
    if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
      found = static_cast<int>(k);
      frac = (level - y0) / (y1 - y0);
    }
  }
  if (found < 0) throw std::runtime_error("edge crossing not found");
  const size_t k0 = static_cast<size_t>(found);
  const size_t k1 = (k0 + 1) % m;
  const Real slope = (w[k1] - w[k0]) / ps.stepSize();
  const LptvSolution& sol = pn.solution();
  std::vector<Real> scaled;
  for (size_t i = 0; i < pn.sources().size(); ++i) {
    const Cplx p0 = sol.envelopes[i][k0][out];
    const Cplx p1 = sol.envelopes[i][k1][out];
    const Real dv = ((1.0 - frac) * p0 + frac * p1).real();
    scaled.push_back(-dv / slope * std::sqrt(pn.sources()[i].psd(pn.offsetFreq())));
  }
  return sigmaOf(scaled);
}

/// Orbit points of a PSS solution, evenly spaced, for the unit-cost replay.
inline std::vector<JacobianPoint> orbitPoints(const PssResult& pss,
                                              size_t count) {
  std::vector<JacobianPoint> pts;
  const size_t m = pss.stepCount();
  for (size_t i = 0; i < count; ++i) {
    const size_t k = 1 + i * (m - 1) / count;
    pts.push_back({pss.states[k], pss.times[k], pss.stepSize()});
  }
  return pts;
}

inline std::vector<JacobianPoint> transientPoints(const TransientResult& tr,
                                                  size_t count) {
  std::vector<JacobianPoint> pts;
  const size_t m = tr.times.size() - 1;
  for (size_t i = 0; i < count; ++i) {
    const size_t k = 1 + i * (m - 1) / count;
    pts.push_back({tr.states[k], tr.times[k], tr.times[k] - tr.times[k - 1]});
  }
  return pts;
}

/// Runs `f` inside a Monte-Carlo callback with a span (and, in the count
/// pass, a telemetry slot) owned by the calling thread.
template <class F>
auto probed(McProbe* probe, const char* name, uint32_t track, F&& f) {
  ScopedSpan span(probe != nullptr ? probe->rec : nullptr, name,
                  probe != nullptr ? probe->parent : -1,
                  probe != nullptr ? probe->round : -1, track);
  return f();
}

/// The callback-level slot lease: binds the thread's telemetry to its own
/// registry slot in the count pass and names its trace track.
class CallbackSlot {
 public:
  explicit CallbackSlot(McProbe* probe) : probe_(probe) {
    if (probe_ == nullptr || probe_->slots == nullptr) return;
    slot_ = probe_->slots->acquire();
    if (probe_->reg != nullptr) scope_.emplace(*probe_->reg, slot_);
  }
  ~CallbackSlot() {
    scope_.reset();
    if (probe_ != nullptr && probe_->slots != nullptr) probe_->slots->release(slot_);
  }
  CallbackSlot(const CallbackSlot&) = delete;
  CallbackSlot& operator=(const CallbackSlot&) = delete;
  uint32_t track() const { return static_cast<uint32_t>(slot_ + 1); }

 private:
  McProbe* probe_;
  size_t slot_ = 0;
  std::optional<TelemetryScope> scope_;
};

inline RealVector Circuit::measure(const MnaSystem& s, McProbe* probe) const {
  CallbackSlot slot(probe);
  ScopedSpan whole(probe ? probe->rec : nullptr, "mc.sample",
                   probe ? probe->parent : -1, probe ? probe->round : -1,
                   slot.track());
  return sample(s, probe, slot.track());
}

/// The wrapper's two calls, each in its own span: the PSS solve
/// (`solvePss`), then PnoiseAnalysis::run; then `readout` on their results.
template <class SolvePss, class Readout>
Real splitEstimate(TraceCtx& ctx, const MnaSystem& sys, const PnoiseOptions& popt,
                   SolvePss&& solvePss, Readout&& readout) {
  PssResult pss;
  {
    ScopedSpan s(ctx.rec, "pss", ctx.parent, ctx.round);
    pss = solvePss();
  }
  ctx.after(false);
  ctx.shootingIters += static_cast<uint64_t>(pss.shootingIterations);
  std::optional<PnoiseAnalysis> pn;
  {
    ScopedSpan s(ctx.rec, "lptv", ctx.parent, ctx.round);
    pn.emplace(sys, pss, popt);
    pn->run();
  }
  ctx.after(true);
  ctx.lptvSources += pn->sources().size();
  ScopedSpan s(ctx.rec, "readout", ctx.parent, ctx.round);
  const Real sigma = readout(*pn, pss);
  ctx.after(false);
  return sigma;
}

// ------------------------------------------------------- (1) logic path

class LogicPath final : public Circuit {
 public:
  LogicPath() {
    lp_ = buildLogicPath(*nl_, kit_, {});
    finish();
    aIdx_ = sys_->netlist().nodeIndex(lp_.outA);
    yIdx_ = sys_->netlist().nodeIndex(lp_.y);
    half_ = kit_.vdd / 2;
    opt_.pss.stepsPerPeriod = 800;
    opt_.pss.warmupCycles = 2;
  }
  const char* name() const override { return "logic"; }

  Real estimate() override {
    TransientMismatchAnalysis an(*sys_, opt_);
    an.runDriven(lp_.period);
    return an.edgeDelayVariation(aIdx_, half_, -1).sigma();
  }

  Real estimateTraced(TraceCtx& ctx) override {
    return splitEstimate(
        ctx, *sys_, opt_.pnoise,
        [&] {
          return solvePssDriven(*sys_, lp_.period, opt_.pss);
        },
        [&](const PnoiseAnalysis& pn, const PssResult& pss) {
          return edgeDelaySigma(pn, pss, aIdx_, half_, -1);
        });
  }

  RealVector sample(const MnaSystem& s, McProbe* probe,
                    uint32_t track) const override {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    const TransientResult tr = probed(probe, "tran", track, [&] {
      return runTransient(s, 0.0, lp_.period, lp_.period / 800, topt);
    });
    return probed(probe, "meas", track, [&] {
      const Waveform wy = makeWaveform(tr.times, tr.states, yIdx_);
      const Waveform wa = makeWaveform(tr.times, tr.states, aIdx_);
      return RealVector{measureDelay(wy, wa, half_, +1, -1)};
    });
  }

  std::unique_ptr<Netlist> build() const override {
    auto nl = std::make_unique<Netlist>();
    buildLogicPath(*nl, ProcessKit::cmos130(), {});
    return nl;
  }

  std::vector<JacobianPoint> pnPoints() override {
    return orbitPoints(solvePssDriven(*sys_, lp_.period, opt_.pss), 6);
  }
  std::vector<JacobianPoint> mcPoints() override {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    return transientPoints(
        runTransient(*sys_, 0.0, lp_.period, lp_.period / 800, topt), 6);
  }

 private:
  ProcessKit kit_ = ProcessKit::cmos130();
  LogicPathCircuit lp_;
  MismatchAnalysisOptions opt_;
  int aIdx_ = -1, yIdx_ = -1;
  Real half_ = 0.0;
};

// --------------------------------------------------- (2) ring oscillator

class Ring final : public Circuit {
 public:
  Ring() {
    osc_ = buildRingOscillator(*nl_, kit_);
    finish();
    opt_.pss.stepsPerPeriod = 400;
  }
  const char* name() const override { return "ring"; }

  Real estimate() override {
    warm_ = warmupRingOscillator(*sys_, osc_);
    TransientMismatchAnalysis an(*sys_, opt_);
    an.runAutonomous(warm_.periodEstimate, warm_.phaseIndex, warm_.state);
    period_ = an.pss().period;
    return an.frequencyVariation(warm_.phaseIndex).sigma();
  }

  Real estimateTraced(TraceCtx& ctx) override {
    RingWarmup warm;
    {
      ScopedSpan s(ctx.rec, "tran", ctx.parent, ctx.round);
      warm = warmupRingOscillator(*sys_, osc_);
    }
    ctx.after(false);
    return splitEstimate(
        ctx, *sys_, opt_.pnoise,
        [&] {
          return solvePssAutonomous(*sys_, warm.periodEstimate, warm.phaseIndex,
                                    warm.state, opt_.pss);
        },
        [&](const PnoiseAnalysis& pn, const PssResult& pss) {
          return frequencySigma(pn, pss, warm.phaseIndex);
        });
  }

  /// The Monte-Carlo callback starts from the warm state and uses the PSS
  /// period of the last estimate(); call estimate() first.
  RealVector sample(const MnaSystem& s, McProbe* probe,
                    uint32_t track) const override {
    TranOptions t2;
    t2.method = IntegrationMethod::kBackwardEuler;
    t2.initialState = &warm_.state;
    const TransientResult tr = probed(probe, "tran", track, [&] {
      return runTransient(s, 0.0, 20 * period_, period_ / 400, t2);
    });
    return probed(probe, "meas", track, [&] {
      const Waveform w = makeWaveform(tr.times, tr.states, warm_.phaseIndex);
      try {
        return RealVector{measureFrequency(w, 0.6, 6)};
      } catch (const Error& e) {
        throw SampleFailure(e.what());
      }
    });
  }

  std::unique_ptr<Netlist> build() const override {
    auto nl = std::make_unique<Netlist>();
    buildRingOscillator(*nl, ProcessKit::cmos130());
    return nl;
  }

  std::vector<JacobianPoint> pnPoints() override {
    const RingWarmup warm = warmupRingOscillator(*sys_, osc_);
    return orbitPoints(solvePssAutonomous(*sys_, warm.periodEstimate,
                                          warm.phaseIndex, warm.state,
                                          opt_.pss),
                       6);
  }
  std::vector<JacobianPoint> mcPoints() override {
    TranOptions t2;
    t2.method = IntegrationMethod::kBackwardEuler;
    t2.initialState = &warm_.state;
    return transientPoints(
        runTransient(*sys_, 0.0, 20 * period_, period_ / 400, t2), 6);
  }

 private:
  ProcessKit kit_ = ProcessKit::cmos130();
  RingOscillatorCircuit osc_;
  MismatchAnalysisOptions opt_;
  RingWarmup warm_;
  Real period_ = 0.0;
};

// -------------------------------------------- (3) comparator testbench

class Comparator final : public Circuit {
 public:
  Comparator() {
    tb_ = buildComparatorTestbench(*nl_, kit_);
    finish();
    opt_.pss.stepsPerPeriod = 400;
    opt_.pss.warmupCycles = 40;
  }
  const char* name() const override { return "comparator"; }

  Real estimate() override {
    TransientMismatchAnalysis an(*sys_, opt_);
    an.runDriven(tb_.clkPeriod);
    return an.dcVariation(tb_.vosIndex).sigma();
  }

  Real estimateTraced(TraceCtx& ctx) override {
    return splitEstimate(
        ctx, *sys_, opt_.pnoise,
        [&] {
          return solvePssDriven(*sys_, tb_.clkPeriod, opt_.pss);
        },
        [&](const PnoiseAnalysis& pn, const PssResult&) {
          return dcSigma(pn, tb_.vosIndex);
        });
  }

  /// Integrates the testbench from power-up (vos = 0) until the offset loop
  /// settles, in 10-cycle blocks: the paper's "long transient".
  RealVector sample(const MnaSystem& s, McProbe* probe,
                    uint32_t track) const override {
    const Real T = tb_.clkPeriod;
    TranOptions t2;
    t2.method = IntegrationMethod::kBackwardEuler;
    t2.storeStates = false;
    RealVector x =
        probed(probe, "dc", track, [&] { return solveDc(s, {}).x; });
    x[tb_.vosIndex] = 0.0;
    Real prev = 1e9;
    for (int block = 0; block < 30; ++block) {
      t2.initialState = &x;
      const TransientResult tr = probed(probe, "tran", track, [&] {
        return runTransient(s, 0.0, 10 * T, T / 100, t2);
      });
      x = tr.finalState;
      if (std::fabs(x[tb_.vosIndex] - prev) < 1e-4) break;
      prev = x[tb_.vosIndex];
    }
    return RealVector{x[tb_.vosIndex]};
  }

  std::unique_ptr<Netlist> build() const override {
    auto nl = std::make_unique<Netlist>();
    buildComparatorTestbench(*nl, ProcessKit::cmos130());
    return nl;
  }

  std::vector<JacobianPoint> pnPoints() override {
    return orbitPoints(solvePssDriven(*sys_, tb_.clkPeriod, opt_.pss), 6);
  }
  std::vector<JacobianPoint> mcPoints() override {
    const Real T = tb_.clkPeriod;
    RealVector x = solveDc(*sys_, {}).x;
    x[tb_.vosIndex] = 0.0;
    TranOptions t2;
    t2.method = IntegrationMethod::kBackwardEuler;
    t2.initialState = &x;
    return transientPoints(runTransient(*sys_, 0.0, 10 * T, T / 100, t2), 6);
  }

 private:
  ProcessKit kit_ = ProcessKit::cmos130();
  ComparatorTestbench tb_;
  MismatchAnalysisOptions opt_;
};

// ------------------------------------------------ (4) BJT op-amp follower

class OpAmp final : public Circuit {
 public:
  static constexpr Real kT1 = 600e-9;
  static constexpr Real kDt = 2e-9;

  OpAmp() {
    buildBjtFollower(*nl_, BjtKit::bipolar5());
    finish();
    outIdx_ = sys_->netlist().nodeIndex(*sys_->netlist().findNode("out"));
    topt_.method = IntegrationMethod::kBackwardEuler;
  }
  const char* name() const override { return "opamp"; }

  Real estimate() override {
    const auto sources = sys_->collectSources(true, false);
    return readout(runTransientSensitivity(*sys_, 0.0, kT1, kDt, sources, topt_),
                   sources);
  }

  Real estimateTraced(TraceCtx& ctx) override {
    const auto sources = sys_->collectSources(true, false);
    std::optional<TransientSensitivityResult> sens;
    {
      ScopedSpan s(ctx.rec, "sens", ctx.parent, ctx.round);
      sens.emplace(runTransientSensitivity(*sys_, 0.0, kT1, kDt, sources, topt_));
    }
    ctx.after(false);
    ScopedSpan s(ctx.rec, "readout", ctx.parent, ctx.round);
    const Real sigma = readout(*sens, sources);
    ctx.after(false);
    return sigma;
  }

  RealVector sample(const MnaSystem& s, McProbe* probe,
                    uint32_t track) const override {
    const TransientResult tr = probed(probe, "tran", track, [&] {
      return runTransient(s, 0.0, kT1, kDt, topt_);
    });
    return probed(probe, "meas", track,
                  [&] { return RealVector{tr.states.back()[outIdx_]}; });
  }

  std::unique_ptr<Netlist> build() const override {
    auto nl = std::make_unique<Netlist>();
    buildBjtFollower(*nl, BjtKit::bipolar5());
    return nl;
  }

  std::vector<JacobianPoint> pnPoints() override { return mcPoints(); }
  std::vector<JacobianPoint> mcPoints() override {
    return transientPoints(runTransient(*sys_, 0.0, kT1, kDt, topt_), 6);
  }

 private:
  /// Sigma of v(out) at the end of the window.
  Real readout(const TransientSensitivityResult& sens,
               const std::vector<InjectionSource>& sources) const {
    const size_t k = sens.times.size() - 1;
    std::vector<Real> scaled;
    for (size_t si = 0; si < sources.size(); ++si) {
      scaled.push_back(sens.sens[si][k][outIdx_] * sources[si].sigma);
    }
    return sigmaOf(scaled);
  }

  TranOptions topt_;
  int outIdx_ = -1;
};

// ----------------------------------------- sparse_pn: driven inverter chain

/// 16-stage inverter chain, `rows` parallel rows driven from one pulse
/// source (n = 16 rows + 4 unknowns). The estimate reads the rising-edge
/// delay at the last tap of row `row`; every row is the same circuit, so
/// the sigma does not depend on the row (or on `rows`) beyond roundoff.
class Chain final : public Circuit {
 public:
  static constexpr int kStages = 16;

  Chain(int rows, int row) : rows_(rows) {
    InverterChainOptions co;
    co.stages = kStages;
    co.rows = rows;
    chain_ = buildInverterChain(*nl_, kit_, co);
    finish();
    period_ = co.period;
    // Node names are ch<i> for one row and chr<row><i> for several.
    std::string tap = "ch";
    if (rows > 1) tap += 'r' + std::to_string(row + 1);
    tap += std::to_string(kStages);
    outIdx_ = sys_->netlist().nodeIndex(tap);
    inIdx_ = sys_->netlist().nodeIndex(chain_.in);
    half_ = kit_.vdd / 2;
  }
  const char* name() const override { return "chain"; }

  void setPool(ThreadPool* pool) override {
    opt_.pss.pool = pool;
    opt_.pnoise.pool = pool;
  }

  Real estimate() override {
    TransientMismatchAnalysis an(*sys_, opt_);
    an.runDriven(period_);
    return an.edgeDelayVariation(outIdx_, half_, +1).sigma();
  }

  Real estimateTraced(TraceCtx& ctx) override {
    return splitEstimate(
        ctx, *sys_, opt_.pnoise,
        [&] {
          return solvePssDriven(*sys_, period_, opt_.pss);
        },
        [&](const PnoiseAnalysis& pn, const PssResult& pss) {
          return edgeDelaySigma(pn, pss, outIdx_, half_, +1);
        });
  }

  /// Reference Monte Carlo only: one period from DC, input-rise to
  /// tap-rise delay (the input edge is fixed, so its sigma is the sigma of
  /// the tap crossing time).
  RealVector sample(const MnaSystem& s, McProbe* probe,
                    uint32_t track) const override {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    const TransientResult tr = probed(probe, "tran", track, [&] {
      return runTransient(s, 0.0, period_, period_ / 400, topt);
    });
    const Waveform win = makeWaveform(tr.times, tr.states, inIdx_);
    const Waveform wout = makeWaveform(tr.times, tr.states, outIdx_);
    return RealVector{measureDelay(win, wout, half_, +1, +1)};
  }

  std::unique_ptr<Netlist> build() const override {
    auto nl = std::make_unique<Netlist>();
    InverterChainOptions co;
    co.stages = kStages;
    co.rows = rows_;
    buildInverterChain(*nl, ProcessKit::cmos130(), co);
    return nl;
  }

  std::vector<JacobianPoint> pnPoints() override {
    return orbitPoints(solvePssDriven(*sys_, period_, opt_.pss), 6);
  }
  std::vector<JacobianPoint> mcPoints() override { return pnPoints(); }

 private:
  ProcessKit kit_ = ProcessKit::cmos130();
  InverterChainCircuit chain_;
  MismatchAnalysisOptions opt_;
  int rows_ = 1;
  Real period_ = 0.0;
  int outIdx_ = -1, inIdx_ = -1;
  Real half_ = 0.0;
};

}  // namespace perfbench
