// Paper-workload benchmark harness: runs one workload of perfbench/run.py
// and prints one JSON line with the raw measurements (round times, set-up
// times, sigmas, Monte-Carlo moments, per-layer figures). run.py turns them
// into the benchmark's metrics and checks them; see perfbench/README.md.
//
//   perfbench_harness --workload paper_pn|paper_mc|sparse_pn|reference
//       --seconds S --trace 0|1 --jobs J
//       [--order 2,0,3,1] [--mc-seeds a,b,...] [--mc-scale F]
//       [--rows R --row r] [--trace-out file]
//
// The harness never sees the benchmark seed: run.py derives the estimate
// order, the Monte-Carlo stream seeds and the read-out row from it.
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <numbers>

#include "circuits.hpp"

namespace perfbench {
namespace {

using Counts = std::array<uint64_t, kNumCounters>;

Counts& operator+=(Counts& a, const Counts& b) {
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

Counts operator-(const Counts& a, const Counts& b) {
  Counts d{};
  for (size_t i = 0; i < a.size(); ++i) d[i] = a[i] - b[i];
  return d;
}

uint64_t at(const Counts& c, Counter k) { return c[static_cast<size_t>(k)]; }

struct Args {
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
  size_t jobs = 1;
  std::vector<int> order{0, 1, 2, 3};
  std::vector<uint64_t> mcSeeds{1};
  double mcScale = 1.0;
  int rows = 4;
  int row = 0;
  std::string traceOut;
};

template <class T>
std::vector<T> parseList(const std::string& s) {
  std::vector<T> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    const size_t comma = std::min(s.find(',', pos), s.size());
    out.push_back(static_cast<T>(std::stoull(s.substr(pos, comma - pos))));
    pos = comma + 1;
  }
  return out;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--jobs") a.jobs = std::max<size_t>(1, std::stoul(v));
    else if (k == "--order") a.order = parseList<int>(v);
    else if (k == "--mc-seeds") a.mcSeeds = parseList<uint64_t>(v);
    else if (k == "--mc-scale") a.mcScale = std::stod(v);
    else if (k == "--rows") a.rows = std::stoi(v);
    else if (k == "--row") a.row = std::stoi(v);
    else if (k == "--trace-out") a.traceOut = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  return a;
}

// ------------------------------------------------------ unit-cost replay

/// Median per-call time (us) of `op`, over five batches long enough to
/// read the clock reliably.
template <class Op>
double timeUs(Op&& op) {
  size_t reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < reps; ++i) op();
    if (secondsSince(t0) >= 2e-3 || reps >= (size_t{1} << 20)) break;
    reps *= 2;
  }
  std::vector<double> us;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < reps; ++i) op();
    us.push_back(1e6 * secondsSince(t0) / static_cast<double>(reps));
  }
  return median(us);
}

struct KernelCosts {
  double factorUs = 0.0, refactorUs = 0.0, solveColUs = 0.0;
};

struct UnitCosts {
  double evalUs = 0.0;
  KernelCosts real, cplx;  // J = G + C/h, and the LPTV K = G + (1/h + jw)C
};

template <class T>
KernelCosts denseKernels(const RealMatrix& g, const RealMatrix& c, T coef) {
  const size_t n = g.rows();
  Matrix<T> j(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = 0; k < n; ++k) j(r, k) = T(g(r, k)) + coef * c(r, k);
  }
  DenseLU<T> lu;
  KernelCosts out;
  out.factorUs = timeUs([&] { lu.factor(j); });
  std::vector<T> b0(n), b(n);
  for (size_t r = 0; r < n; ++r) b0[r] = T(1.0 + 0.01 * static_cast<double>(r));
  out.solveColUs = timeUs([&] {
    b = b0;
    lu.solveInPlace(b);
  });
  return out;
}

template <class T>
KernelCosts sparseKernels(const RealSparse& g, const RealSparse& c, T coef) {
  MergedSparseAssembler<T> jac;
  jac.assemble(g, c, coef);
  SparseLU<T> lu;
  KernelCosts out;
  out.factorUs = timeUs([&] { lu.factor(jac.matrix); });
  out.refactorUs = timeUs([&] {
    if (!lu.refactor(jac.matrix)) lu.factor(jac.matrix);
  });
  const size_t n = g.rows();
  std::vector<T> b0(n), b(n);
  for (size_t r = 0; r < n; ++r) b0[r] = T(1.0 + 0.01 * static_cast<double>(r));
  out.solveColUs = timeUs([&] {
    b = b0;
    lu.solveInPlace(b);
  });
  return out;
}

void accumulate(KernelCosts& acc, const KernelCosts& k, double w) {
  acc.factorUs += w * k.factorUs;
  acc.refactorUs += w * k.refactorUs;
  acc.solveColUs += w * k.solveColUs;
}

/// Prices MNA evaluation and the LU kernels on the workload's own
/// trajectory, on the backend the engines used (`sparse`, read from the
/// counted round).
UnitCosts replayCosts(const MnaSystem& sys, const std::vector<JacobianPoint>& pts,
                      bool sparse) {
  const Real omega = 2.0 * std::numbers::pi_v<Real> * PnoiseOptions{}.offsetFreq;
  const double w = 1.0 / static_cast<double>(pts.size());
  UnitCosts u;
  RealVector f, q;
  for (const JacobianPoint& p : pts) {
    const Cplx coef(1.0 / p.h, omega);
    if (sparse) {
      RealSparse g, c;
      u.evalUs += w * timeUs([&] { sys.evalSparse(p.x, p.t, &f, &q, &g, &c); });
      accumulate(u.real, sparseKernels<Real>(g, c, 1.0 / p.h), w);
      accumulate(u.cplx, sparseKernels<Cplx>(g, c, coef), w);
    } else {
      RealMatrix g, c;
      u.evalUs += w * timeUs([&] { sys.evalDense(p.x, p.t, &f, &q, &g, &c); });
      accumulate(u.real, denseKernels<Real>(g, c, 1.0 / p.h), w);
      accumulate(u.cplx, denseKernels<Cplx>(g, c, coef), w);
    }
  }
  return u;
}

// ---------------------------------------------------------- calibration

/// A fixed single-threaded CPU workload owned by the benchmark (it calls no
/// library code): small dense LU factorizations, exp/sin evaluations and
/// random updates over a 4 MB buffer -- the kinds of work a round does, in
/// about 10 ms. Timed next to every round and set-up, it measures how fast
/// the machine is at that moment. On the shared VM this benchmark was built
/// on, paper_pn round times drifted by up to 1.7x over minutes while round
/// time / calibration time stayed within about 5%; run.py divides the
/// drift out.
class Calibrator {
 public:
  double seconds() {
    const auto t0 = Clock::now();
    constexpr int n = 24;
    double acc = 0.0;
    std::array<double, n * n> a{};
    for (int rep = 0; rep < 200; ++rep) {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          a[i * n + j] = (i == j ? n : 0) + std::sin(i * 0.37 + j * 0.11 + rep);
        }
      }
      for (int k = 0; k < n; ++k) {
        int p = k;
        for (int i = k + 1; i < n; ++i) {
          if (std::fabs(a[i * n + k]) > std::fabs(a[p * n + k])) p = i;
        }
        for (int j = 0; j < n && p != k; ++j) std::swap(a[k * n + j], a[p * n + j]);
        for (int i = k + 1; i < n; ++i) {
          const double l = a[i * n + k] / a[k * n + k];
          for (int j = k + 1; j < n; ++j) a[i * n + j] -= l * a[k * n + j];
        }
      }
      acc += a[n * n - 1];
      for (int i = 0; i < 200; ++i) acc += std::exp(-1e-3 * i - rep * 1e-6);
    }
    const size_t size = buf_.size();  // a power of two
    for (size_t pass = 0; pass < 4; ++pass) {
      size_t idx = pass;
      for (size_t i = 0; i < size; ++i) {
        idx = (idx * 1103515245u + 12345u) & (size - 1);
        buf_[idx] = buf_[idx] * 0.5 + acc * 1e-9;
      }
    }
    buf_[0] += acc;  // keeps the LU and exp work observable
    return secondsSince(t0);
  }

 private:
  std::vector<double> buf_ = std::vector<double>(size_t{1} << 19, 0.0);
};

// ------------------------------------------------------------ workloads

/// Counters of one counted round, split per circuit and per kind (real
/// kernels vs the LPTV's complex ones), plus engine-reported totals.
struct CountPass {
  std::vector<std::array<Counts, 2>> perCircuit;  // [circuit][complex?]
  uint64_t shootingIters = 0;
  uint64_t lptvSources = 0;
  double rounds = 1.0;  // rounds the pass covered (counts are divided by it)

  /// Whether circuit i's counted round factored on the sparse backend.
  bool usedSparse(size_t i) const {
    const auto& pc = perCircuit.at(i);
    return at(pc[0], Counter::kSparseFactors) + at(pc[1], Counter::kSparseFactors) > 0;
  }

  Counts total() const {
    Counts t{};
    for (const auto& pc : perCircuit) {
      t += pc[0];
      t += pc[1];
    }
    return t;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the circuits (and pool) and runs one untimed warm round.
  virtual void setup() = 0;
  /// One timed round; `traced` records spans and binds telemetry.
  virtual void round(int r, SpanRecorder* rec, bool traced) = 0;
  /// One round with a telemetry registry bound, at `jobs` slots.
  virtual CountPass countPass(size_t jobs) = 0;
  /// Unit costs per circuit, aligned with CountPass::perCircuit, on the
  /// backend the counted round shows each circuit used.
  virtual std::vector<UnitCosts> replay(const CountPass& pass) = 0;
  /// Rounds in one full cycle of the workload's inputs.
  virtual int cycle() const { return 1; }
  virtual void report(JsonOut& j) const = 0;
  /// Pseudo-noise sigma per circuit from set-up.
  virtual std::vector<Real> sigmas() const = 0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  double itemsPerRound = 0.0;

 protected:
  void problem(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
};

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// paper_pn and sparse_pn: rounds of pseudo-noise estimates.
class PnWorkload final : public Workload {
 public:
  PnWorkload(std::vector<std::unique_ptr<Circuit>> circuits,
             std::vector<int> order, size_t poolJobs)
      : circuits_(std::move(circuits)),
        order_(std::move(order)),
        poolJobs_(poolJobs) {
    std::vector<int> sorted = order_;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (sorted.size() != circuits_.size() || sorted[i] != static_cast<int>(i)) {
        throw std::runtime_error("--order must name every circuit once");
      }
    }
    itemsPerRound = static_cast<double>(circuits_.size());
  }

  void setup() override {
    if (poolJobs_ > 0) {
      pool_ = std::make_unique<ThreadPool>(poolJobs_);
      for (auto& c : circuits_) c->setPool(pool_.get());
    }
    for (auto& c : circuits_) {
      const auto t0 = Clock::now();
      sigma_.push_back(c->estimate());
      seconds_.push_back(secondsSince(t0));
    }
  }

  void round(int r, SpanRecorder* rec, bool traced) override {
    std::optional<TelemetryRegistry> reg;
    std::optional<TelemetryScope> scope;
    if (traced) {
      reg.emplace(std::max<size_t>(1, poolJobs_));
      scope.emplace(*reg, 0);
      if (pool_) pool_->attachTelemetry(&*reg);
    }
    ScopedSpan rs(rec, "round", -1, r);
    for (size_t i = 0; i < circuits_.size(); ++i) {
      const size_t idx = static_cast<size_t>(order_[(i + r) % order_.size()]);
      Circuit& c = *circuits_[idx];
      ScopedSpan es(rec, c.name(), rs.id(), r);
      ++attempted;
      try {
        TraceCtx ctx{rec, es.id(), r, {}, 0, 0};
        const Real s = traced ? c.estimateTraced(ctx) : c.estimate();
        if (!sameBits(s, sigma_[idx])) {
          ++failed;
          problem(std::string(c.name()) + ": sigma drifted between rounds");
        }
      } catch (const std::exception& e) {
        ++failed;
        problem(std::string(c.name()) + ": " + e.what());
      }
    }
    if (pool_) pool_->attachTelemetry(nullptr);
  }

  CountPass countPass(size_t jobs) override {
    std::unique_ptr<ThreadPool> pool;
    if (poolJobs_ > 0) {
      pool = std::make_unique<ThreadPool>(jobs);
      for (auto& c : circuits_) c->setPool(pool.get());
    }
    TelemetryRegistry reg(std::max<size_t>(1, jobs));
    if (pool) pool->attachTelemetry(&reg);
    CountPass pass;
    pass.perCircuit.resize(circuits_.size());
    {
      TelemetryScope scope(reg, 0);
      for (size_t i = 0; i < circuits_.size(); ++i) {
        Counts last = reg.totals().counters;
        TraceCtx ctx;
        ctx.mark = [&](bool complexKind) {
          const Counts now = reg.totals().counters;
          pass.perCircuit[i][complexKind ? 1 : 0] += now - last;
          last = now;
        };
        const Real s = circuits_[i]->estimateTraced(ctx);
        if (!sameBits(s, sigma_[i])) {
          problem(std::string(circuits_[i]->name()) +
                  ": traced estimate differs from the untraced one");
        }
        pass.shootingIters += ctx.shootingIters;
        pass.lptvSources += ctx.lptvSources;
      }
    }
    for (auto& c : circuits_) c->setPool(pool_.get());
    return pass;
  }

  std::vector<UnitCosts> replay(const CountPass& pass) override {
    std::vector<UnitCosts> u;
    for (size_t i = 0; i < circuits_.size(); ++i) {
      u.push_back(replayCosts(circuits_[i]->sys(), circuits_[i]->pnPoints(),
                              pass.usedSparse(i)));
    }
    return u;
  }

  void report(JsonOut& j) const override {
    j.key("sigma_pn").open('{');
    for (size_t i = 0; i < circuits_.size(); ++i) j.key(circuits_[i]->name()).num(sigma_[i]);
    j.close('}');
    j.key("pn_seconds").open('{');
    for (size_t i = 0; i < circuits_.size(); ++i) j.key(circuits_[i]->name()).num(seconds_[i]);
    j.close('}');
  }

  std::vector<Real> sigmas() const override { return sigma_; }

 private:
  std::vector<std::unique_ptr<Circuit>> circuits_;
  std::vector<int> order_;
  size_t poolJobs_;  // 0: no pool (single-threaded estimates)
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Real> sigma_;
  std::vector<double> seconds_;
};

/// paper_mc: rounds of MonteCarloEngine::run over the four paper circuits.
/// Round r draws from stream r mod K, so rounds K..2K-1 must repeat rounds
/// 0..K-1 bit for bit, and the pooled sigma of one cycle is deterministic.
class McWorkload final : public Workload {
 public:
  McWorkload(std::vector<std::unique_ptr<Circuit>> circuits,
             std::vector<size_t> samples, std::vector<uint64_t> seeds,
             size_t jobs)
      : circuits_(std::move(circuits)),
        samples_(std::move(samples)),
        seeds_(std::move(seeds)),
        jobs_(jobs),
        moments_(seeds_.size(), std::vector<std::optional<MomentAccumulator>>(
                                    circuits_.size())),
        mcSeconds_(circuits_.size(), 0.0),
        mcCount_(circuits_.size(), 0) {
    for (size_t s : samples_) itemsPerRound += static_cast<double>(s);
  }

  void setup() override {
    for (auto& c : circuits_) {
      const auto t0 = Clock::now();
      sigmaPn_.push_back(c->estimate());
      pnSeconds_.push_back(secondsSince(t0));
    }
    // The warm tile draws from a fixed stream, so set-up costs the same for
    // every benchmark seed.
    for (size_t i = 0; i < circuits_.size(); ++i) {
      McOptions mo;
      mo.samples = samples_[i];
      mo.keepSamples = false;
      mo.jobs = jobs_;
      MonteCarloEngine engine(circuits_[i]->sys(), mo);
      Circuit& c = *circuits_[i];
      engine.setNetlistFactory([&c] { return c.build(); });
      engine.run({c.name()}, [&c](const MnaSystem& s) { return c.measure(s, nullptr); });
    }
  }

  void round(int r, SpanRecorder* rec, bool traced) override {
    const size_t k = static_cast<size_t>(r) % seeds_.size();
    std::optional<TelemetryRegistry> reg;
    SlotPool slots(jobs_);
    McProbe probe;
    if (traced) {
      reg.emplace(jobs_);
      probe = McProbe{rec, &*reg, &slots, -1, r};
    }
    ScopedSpan rs(rec, "round", -1, r);
    for (size_t i = 0; i < circuits_.size(); ++i) {
      ScopedSpan cs(rec, "mc.run", rs.id(), r);
      probe.parent = cs.id();
      const auto t0 = Clock::now();
      runOne(i, k, jobs_, traced ? &probe : nullptr, r);
      mcSeconds_[i] += secondsSince(t0);
      mcCount_[i] += samples_[i];
    }
  }

  CountPass countPass(size_t jobs) override {
    TelemetryRegistry reg(jobs);
    SlotPool slots(jobs);
    McProbe probe{nullptr, &reg, &slots, -1, -1};
    CountPass pass;
    pass.perCircuit.resize(circuits_.size());
    // The first few streams: enough rounds to average over, short enough
    // to repeat serially for the jobs=1 comparison.
    const size_t streams = std::min<size_t>(seeds_.size(), 4);
    pass.rounds = static_cast<double>(streams);
    for (size_t k = 0; k < streams; ++k) {
      for (size_t i = 0; i < circuits_.size(); ++i) {
        const Counts before = reg.totals().counters;
        runOne(i, k, jobs, &probe, -1);
        pass.perCircuit[i][0] += reg.totals().counters - before;
      }
    }
    return pass;
  }

  std::vector<UnitCosts> replay(const CountPass& pass) override {
    std::vector<UnitCosts> u;
    for (size_t i = 0; i < circuits_.size(); ++i) {
      u.push_back(replayCosts(circuits_[i]->sys(), circuits_[i]->mcPoints(),
                              pass.usedSparse(i)));
    }
    return u;
  }

  int cycle() const override { return static_cast<int>(seeds_.size()); }
  std::vector<Real> sigmas() const override { return sigmaPn_; }

  void report(JsonOut& j) const override {
    j.key("sigma_pn").open('{');
    for (size_t i = 0; i < circuits_.size(); ++i) j.key(circuits_[i]->name()).num(sigmaPn_[i]);
    j.close('}');
    j.key("pn_seconds").open('{');
    for (size_t i = 0; i < circuits_.size(); ++i) j.key(circuits_[i]->name()).num(pnSeconds_[i]);
    j.close('}');
    j.key("mc").open('{');
    for (size_t i = 0; i < circuits_.size(); ++i) {
      MomentAccumulator pooled;
      bool complete = true;
      for (size_t k = 0; k < seeds_.size(); ++k) {
        if (moments_[k][i]) pooled.merge(*moments_[k][i]);
        else complete = false;
      }
      j.key(circuits_[i]->name()).open('{');
      j.key("n").integer(pooled.count());
      j.key("sigma").num(pooled.count() > 1 ? pooled.stddev() : 0.0);
      j.key("mean").num(pooled.mean());
      j.key("complete").boolean(complete);
      j.key("seconds_per_sample")
          .num(mcCount_[i] ? mcSeconds_[i] / static_cast<double>(mcCount_[i]) : 0.0);
      j.close('}');
    }
    j.close('}');
  }

 private:
  /// One MonteCarloEngine::run of circuit i on stream k.
  void runOne(size_t i, size_t k, size_t jobs, McProbe* probe, int r) {
    Circuit& c = *circuits_[i];
    McOptions mo;
    mo.samples = samples_[i];
    mo.seed = seeds_[k];
    mo.keepSamples = false;
    mo.jobs = jobs;
    MonteCarloEngine engine(c.sys(), mo);
    engine.setNetlistFactory([&c] { return c.build(); });
    attempted += r >= 0 ? samples_[i] : 0;
    McResult res;
    try {
      res = engine.run({c.name()},
                       [&c, probe](const MnaSystem& s) { return c.measure(s, probe); });
    } catch (const std::exception& e) {
      if (r >= 0) failed += samples_[i];
      problem(std::string(c.name()) + ": Monte Carlo threw: " + e.what());
      return;
    }
    if (res.failedSamples > 0) {
      if (r >= 0) failed += res.failedSamples;
      problem(std::string(c.name()) + ": " + std::to_string(res.failedSamples) +
              " Monte-Carlo samples failed");
    }
    const MomentAccumulator& m = res.moments.at(0);
    auto& stored = moments_[k][i];
    if (!stored) {
      stored = m;
    } else if (stored->count() != m.count() || !sameBits(stored->mean(), m.mean()) ||
               !sameBits(stored->stddev(), m.stddev())) {
      problem(std::string(c.name()) + ": Monte-Carlo stream " + std::to_string(k) +
              " did not repeat bit for bit");
    }
  }

  std::vector<std::unique_ptr<Circuit>> circuits_;
  std::vector<size_t> samples_;
  std::vector<uint64_t> seeds_;
  size_t jobs_;
  std::vector<std::vector<std::optional<MomentAccumulator>>> moments_;  // [k][i]
  std::vector<Real> sigmaPn_;
  std::vector<double> pnSeconds_;
  std::vector<double> mcSeconds_;
  std::vector<size_t> mcCount_;
};

std::vector<std::unique_ptr<Circuit>> paperCircuits() {
  std::vector<std::unique_ptr<Circuit>> v;
  v.push_back(std::make_unique<LogicPath>());
  v.push_back(std::make_unique<Ring>());
  v.push_back(std::make_unique<Comparator>());
  v.push_back(std::make_unique<OpAmp>());
  return v;
}

std::unique_ptr<Workload> makeWorkload(const Args& a) {
  if (a.workload == "paper_pn") {
    return std::make_unique<PnWorkload>(paperCircuits(), a.order, 0);
  }
  if (a.workload == "sparse_pn") {
    if (a.rows < 1 || a.row < 0 || a.row >= a.rows) {
      throw std::runtime_error("--row must lie in [0, --rows)");
    }
    std::vector<std::unique_ptr<Circuit>> v;
    v.push_back(std::make_unique<Chain>(a.rows, a.row));
    return std::make_unique<PnWorkload>(std::move(v), std::vector<int>{0}, a.jobs);
  }
  if (a.workload == "paper_mc") {
    // Per-round sample counts (logic, ring, comparator, op-amp): fewer
    // samples for the costlier circuits, so every circuit holds a sizable
    // share of a half-second round on four slots.
    std::vector<size_t> samples;
    for (size_t s : {64, 16, 8, 32}) {
      samples.push_back(std::max<size_t>(4, static_cast<size_t>(s * a.mcScale)));
    }
    return std::make_unique<McWorkload>(paperCircuits(), samples, a.mcSeeds, a.jobs);
  }
  throw std::runtime_error("unknown workload " + a.workload);
}

/// Execution slots a round of the workload uses: paper_pn is
/// single-threaded, the others run on `jobs` slots.
size_t roundSlots(const Args& a) { return a.workload == "paper_pn" ? 1 : a.jobs; }

double peakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

/// Untraced run: closed-loop rounds for the requested seconds, with the
/// set-up repeated kSetups times spread evenly over the run (the first one
/// builds the workload the rounds use; the others build a throw-away copy
/// between rounds), so one slow stretch of a shared machine cannot skew
/// the median set-up time. Set-up time does not count against `seconds`.
/// Every round and set-up is bracketed by calibrations (consecutive rounds
/// share one); each reports the mean of its two.
void runUntraced(const Args& a, JsonOut& j) {
  constexpr int kSetups = 5;
  Calibrator calibrator;
  std::vector<double> setupS, setupCal, roundCal;
  std::vector<std::string> problems;
  std::vector<Real> first;
  auto setUp = [&](std::unique_ptr<Workload>& w) {
    const double before = calibrator.seconds();
    const auto t0 = Clock::now();
    w = makeWorkload(a);
    w->setup();
    setupS.push_back(secondsSince(t0));
    setupCal.push_back(0.5 * (before + calibrator.seconds()));
    const std::vector<Real> s = w->sigmas();
    if (first.empty()) first = s;
    for (size_t c = 0; c < s.size(); ++c) {
      if (!sameBits(s[c], first[c])) problems.push_back("sigma differs between set-ups");
    }
  };
  std::unique_ptr<Workload> w;
  setUp(w);
  std::vector<double> roundS;
  double roundTotal = 0.0;
  double cal = calibrator.seconds();
  for (int r = 0; roundTotal < a.seconds || r < w->cycle(); ++r) {
    if (static_cast<int>(setupS.size()) < kSetups &&
        roundTotal >= a.seconds * static_cast<double>(setupS.size()) / kSetups) {
      std::unique_ptr<Workload> extra;
      setUp(extra);
      cal = calibrator.seconds();
    }
    const double before = cal;
    const auto tr = Clock::now();
    w->round(r, nullptr, false);
    roundS.push_back(secondsSince(tr));
    cal = calibrator.seconds();
    roundCal.push_back(0.5 * (before + cal));
    roundTotal += roundS.back();
  }
  while (static_cast<int>(setupS.size()) < kSetups) {
    std::unique_ptr<Workload> extra;
    setUp(extra);
  }
  w->problems.insert(w->problems.end(), problems.begin(), problems.end());
  j.key("setup_s").nums(setupS);
  j.key("setup_cal_s").nums(setupCal);
  j.key("round_s").nums(roundS);
  j.key("round_cal_s").nums(roundCal);
  j.key("items_per_round").num(w->itemsPerRound);
  j.key("attempted").integer(w->attempted);
  j.key("failed").integer(w->failed);
  w->report(j);
  j.key("problems").open('[');
  for (const auto& p : w->problems) j.str(p);
  j.close(']');
}

/// Traced run: a counted round at jobs and at 1 (must agree exactly), the
/// unit-cost replay, then alternating untraced/traced rounds whose medians
/// give the per-layer times and the tracing overhead.
void runTraced(const Args& a, JsonOut& j) {
  std::unique_ptr<Workload> w = makeWorkload(a);
  w->setup();
  const CountPass pass = w->countPass(a.jobs);
  const CountPass serial = w->countPass(1);
  if (pass.total() != serial.total() || pass.shootingIters != serial.shootingIters) {
    w->problems.push_back("telemetry counts differ between jobs=" +
                          std::to_string(a.jobs) + " and jobs=1");
  }
  const std::vector<UnitCosts> unit = w->replay(pass);

  SpanRecorder rec(true);
  std::vector<double> plainS, tracedS;
  std::vector<int> tracedRounds;
  const int cyc = w->cycle();
  const auto t0 = Clock::now();
  int r = 0;
  for (; secondsSince(t0) < a.seconds || r < 2 * cyc; ++r) {
    // Alternate round by round; with a multi-round cycle, flip the phase
    // each cycle so every input stream is run both ways.
    const bool traced = (r + (cyc > 1 ? r / cyc : 0)) % 2 == 1;
    rec.setEnabled(traced);
    const auto tr = Clock::now();
    w->round(r, &rec, traced);
    (traced ? tracedS : plainS).push_back(secondsSince(tr));
    if (traced) tracedRounds.push_back(r);
  }
  const auto sums = rec.perRoundSums(r);
  auto layerTime = [&](const char* name) {
    const auto it = sums.find(name);
    if (it == sums.end()) return 0.0;
    std::vector<double> v;
    for (int tr : tracedRounds) v.push_back(it->second[static_cast<size_t>(tr)]);
    return median(v);
  };

  // Counted figures per round, priced with the replayed unit costs.
  const double roundP50 = median(plainS);
  const double denom = roundP50 * static_cast<double>(roundSlots(a));
  const Counts tot = pass.total();
  const double perRound = 1.0 / pass.rounds;
  double evalUsSum = 0, factorUsSum = 0, refactorUsSum = 0, solveUsSum = 0;
  for (size_t i = 0; i < pass.perCircuit.size(); ++i) {
    for (int kind = 0; kind < 2; ++kind) {
      const Counts& c = pass.perCircuit[i][static_cast<size_t>(kind)];
      const KernelCosts& k = kind ? unit[i].cplx : unit[i].real;
      evalUsSum += at(c, Counter::kMnaEvals) * unit[i].evalUs;
      factorUsSum += (at(c, Counter::kDenseFactors) + at(c, Counter::kSparseFactors)) *
                     k.factorUs;
      refactorUsSum += at(c, Counter::kSparseRefactors) * k.refactorUs;
      solveUsSum += at(c, Counter::kSolveColumns) * k.solveColUs;
    }
  }
  const double evals = at(tot, Counter::kMnaEvals);
  const double factors = at(tot, Counter::kDenseFactors) + at(tot, Counter::kSparseFactors);
  const double refactors = at(tot, Counter::kSparseRefactors);
  const double cols = at(tot, Counter::kSolveColumns);
  const double steps = at(tot, Counter::kStepsAccepted);
  const double newton = at(tot, Counter::kNewtonIterations);
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::vector<double> idle;
  if (const auto it = sums.find("mc.sample"); it != sums.end()) {
    for (size_t i = 0; i < tracedRounds.size(); ++i) {
      const double busy = it->second[static_cast<size_t>(tracedRounds[i])];
      idle.push_back(1.0 - busy / (tracedS[i] * static_cast<double>(roundSlots(a))));
    }
  }

  j.key("layers").open('{');
  j.key("mna.evals").num(evals * perRound);
  j.key("mna.eval_us").num(ratio(evalUsSum, evals));
  j.key("mna.share").num(ratio(evalUsSum * perRound * 1e-6, denom));
  j.key("lu.factors").num(factors * perRound);
  j.key("lu.refactors").num(refactors * perRound);
  j.key("lu.solve_cols").num(cols * perRound);
  j.key("lu.factor_nnz").num(at(tot, Counter::kFactorNnzTotal) * perRound);
  j.key("lu.factor_us").num(ratio(factorUsSum, factors));
  j.key("lu.refactor_us").num(ratio(refactorUsSum, refactors));
  j.key("lu.solve_col_us").num(ratio(solveUsSum, cols));
  j.key("lu.share")
      .num(ratio((factorUsSum + refactorUsSum + solveUsSum) * perRound * 1e-6, denom));
  j.key("dc.solve_s").num(layerTime("dc"));
  j.key("tran.run_s").num(layerTime("tran"));
  j.key("tran.steps").num(steps * perRound);
  j.key("tran.newton_iters").num(newton * perRound);
  j.key("tran.newton_per_step").num(ratio(newton, steps));
  j.key("sens.solve_s").num(layerTime("sens"));
  j.key("pss.solve_s").num(layerTime("pss"));
  j.key("pss.shooting_iters").num(static_cast<double>(pass.shootingIters) * perRound);
  j.key("lptv.solve_s").num(layerTime("lptv"));
  j.key("lptv.sources").num(static_cast<double>(pass.lptvSources) * perRound);
  j.key("readout.s").num(layerTime("readout"));
  j.key("mc.measure_busy_s").num(layerTime("mc.sample"));
  j.key("runtime.idle_frac").num(median(idle));
  j.key("meas.s").num(layerTime("meas"));
  j.key("trace.overhead_pct").num(100.0 * ratio(median(tracedS) - roundP50, roundP50));
  j.close('}');
  j.key("round_s_untraced_p50").num(roundP50);
  j.key("round_s_traced_p50").num(median(tracedS));
  j.key("counts").open('{');
  for (size_t i = 0; i < kNumCounters; ++i) {
    j.key(counterName(static_cast<Counter>(i))).integer(tot[i]);
  }
  j.key("shooting_iters").integer(pass.shootingIters);
  j.close('}');
  j.key("attempted").integer(w->attempted);
  j.key("failed").integer(w->failed);
  w->report(j);
  j.key("problems").open('[');
  for (const auto& p : w->problems) j.str(p);
  j.close(']');
  if (!a.traceOut.empty()) rec.writeChromeTrace(a.traceOut);
}

/// Offline reference: large-N Monte Carlo of every circuit at one fixed
/// seed. Its sigmas are stored in perfbench/golden.json (see README).
void runReference(const Args& a, JsonOut& j) {
  constexpr uint64_t kReferenceSeed = 20070604;
  std::vector<std::unique_ptr<Circuit>> circuits = paperCircuits();
  circuits.push_back(std::make_unique<Chain>(1, 0));
  const std::vector<size_t> samples{2000, 1000, 1000, 2000, 2000};
  j.key("reference").open('{');
  for (size_t i = 0; i < circuits.size(); ++i) {
    Circuit& c = *circuits[i];
    const Real sigmaPn = c.estimate();
    McOptions mo;
    mo.samples = samples[i];
    mo.seed = kReferenceSeed;
    mo.keepSamples = false;
    mo.jobs = a.jobs;
    MonteCarloEngine engine(c.sys(), mo);
    engine.setNetlistFactory([&c] { return c.build(); });
    const McResult res = engine.run(
        {c.name()}, [&c](const MnaSystem& s) { return c.measure(s, nullptr); });
    j.key(c.name()).open('{');
    j.key("sigma_pn").num(sigmaPn);
    j.key("sigma_mc").num(res.sigma());
    j.key("n").integer(res.moments[0].count());
    j.key("failed").integer(res.failedSamples);
    j.key("seed").integer(kReferenceSeed);
    j.key("seconds").num(res.elapsedSeconds);
    j.close('}');
    std::fprintf(stderr, "%s: pn %.6g  mc %.6g (n=%zu)  ratio %.4f\n", c.name(),
                 sigmaPn, res.sigma(), res.moments[0].count(), sigmaPn / res.sigma());
  }
  j.close('}');
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parseArgs(argc, argv);
    JsonOut j;
    j.open('{');
    j.key("workload").str(a.workload);
    j.key("jobs").integer(a.jobs);
    if (a.workload == "reference") runReference(a, j);
    else if (a.trace) runTraced(a, j);
    else runUntraced(a, j);
    j.key("peak_rss_kb").num(peakRssKb());
    j.close('}');
    std::cout << j.text() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
