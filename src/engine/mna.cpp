#include "engine/mna.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/fault_injection.hpp"
#include "util/telemetry.hpp"

namespace psmn {

MnaSystem::MnaSystem(Netlist& netlist) : netlist_(&netlist) {
  netlist.finalize();
  n_ = netlist.unknownCount();
  nodeUnknowns_ = netlist.nodeCount() - 1;
  PSMN_CHECK(n_ > 0, "empty netlist");
}

void MnaSystem::evalDense(std::span<const Real> x, Real t, RealVector* f,
                          RealVector* q, RealMatrix* g, RealMatrix* c,
                          const EvalOptions& opt) const {
  PSMN_CHECK(x.size() == n_, "state size mismatch");
  telemetryCount(Counter::kMnaEvals);
  if (f) f->assign(n_, 0.0);
  if (q) q->assign(n_, 0.0);
  if (g) g->resize(n_, n_);
  if (c) c->resize(n_, n_);

  Stamper s(x, t, n_);
  s.attachVectors(f, q);
  s.attachDense(g, c);
  s.setSourceScale(opt.sourceScale);
  s.setGmin(opt.gmin);
  for (const auto& dev : netlist_->devices()) dev->eval(s);

  if (opt.gshunt > 0.0) {
    for (size_t i = 0; i < nodeUnknowns_; ++i) {
      if (f) (*f)[i] += opt.gshunt * x[i];
      if (g) (*g)(i, i) += opt.gshunt;
    }
  }
  if (f && faultShouldFire("mna.eval")) {
    (*f)[0] = std::numeric_limits<Real>::quiet_NaN();
  }
}

namespace {

/// Rebuilds `m` as a pattern matrix: union of its existing pattern, the
/// accumulated triplets, and (for G) every node-diagonal slot. Values are
/// zeroed; the caller re-stamps through the slots.
void rebuildPattern(RealSparse* m, size_t n, std::vector<Triplet<Real>>& trips,
                    size_t diagonals) {
  if (m == nullptr) return;
  if (m->rows() == n) {
    const auto ptr = m->colPointers();
    const auto idx = m->rowIndices();
    for (size_t c = 0; c < n; ++c) {
      for (int k = ptr[c]; k < ptr[c + 1]; ++k) {
        trips.push_back({idx[k], static_cast<int>(c), 0.0});
      }
    }
  }
  for (size_t i = 0; i < diagonals; ++i) {
    trips.push_back({static_cast<int>(i), static_cast<int>(i), 0.0});
  }
  *m = RealSparse::fromTriplets(n, n, trips);
  m->zeroValues();
}

}  // namespace

void MnaSystem::evalSparse(std::span<const Real> x, Real t, RealVector* f,
                           RealVector* q, RealSparse* g, RealSparse* c,
                           const EvalOptions& opt) const {
  PSMN_CHECK(x.size() == n_, "state size mismatch");
  telemetryCount(Counter::kMnaEvals);
  PSMN_CHECK(g != nullptr || c != nullptr,
             "evalSparse needs a matrix target; use evalDense for f/q only");

  // One-time symbolic pass: run the devices in triplet mode at the current
  // iterate to discover the pattern.
  if ((g && g->rows() != n_) || (c && c->rows() != n_)) {
    std::vector<Triplet<Real>> gTrips, cTrips;
    Stamper s(x, t, n_);
    s.attachTriplets(g ? &gTrips : nullptr, c ? &cTrips : nullptr);
    s.setSourceScale(opt.sourceScale);
    s.setGmin(opt.gmin);
    for (const auto& dev : netlist_->devices()) dev->eval(s);
    rebuildPattern(g, n_, gTrips, nodeUnknowns_);
    rebuildPattern(c, n_, cTrips, 0);
  }

  // Slot-stamping passes: normally one; a pattern miss (a device reaching a
  // position the symbolic pass never saw) extends the pattern and retries.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (f) f->assign(n_, 0.0);
    if (q) q->assign(n_, 0.0);
    if (g) g->zeroValues();
    if (c) c->zeroValues();

    Stamper s(x, t, n_);
    s.attachVectors(f, q);
    s.attachSparse(g, c);
    s.setSourceScale(opt.sourceScale);
    s.setGmin(opt.gmin);
    for (const auto& dev : netlist_->devices()) dev->eval(s);

    if (!s.sparseMiss()) break;
    PSMN_CHECK(attempt == 0, "evalSparse: pattern miss after rebuild");
    std::vector<Triplet<Real>> gTrips, cTrips;
    Stamper ts(x, t, n_);
    ts.attachTriplets(g ? &gTrips : nullptr, c ? &cTrips : nullptr);
    ts.setSourceScale(opt.sourceScale);
    ts.setGmin(opt.gmin);
    for (const auto& dev : netlist_->devices()) dev->eval(ts);
    rebuildPattern(g, n_, gTrips, nodeUnknowns_);
    rebuildPattern(c, n_, cTrips, 0);
  }

  if (opt.gshunt > 0.0) {
    for (size_t i = 0; i < nodeUnknowns_; ++i) {
      if (f) (*f)[i] += opt.gshunt * x[i];
      if (g) *g->find(static_cast<int>(i), static_cast<int>(i)) += opt.gshunt;
    }
  }
  if (f && faultShouldFire("mna.eval")) {
    (*f)[0] = std::numeric_limits<Real>::quiet_NaN();
  }
}

void MnaSystem::evalInjection(const InjectionSource& src,
                              std::span<const Real> x, Real t, RealVector* bf,
                              RealVector* bq) const {
  PSMN_CHECK(x.size() == n_, "state size mismatch");
  if (bf) bf->assign(n_, 0.0);
  if (bq) bq->assign(n_, 0.0);
  PSMN_CHECK(!src.components.empty(), "injection source has no components");

  // Weighted accumulation straight into the output vectors: the stamper's
  // stamp scale carries the component weight, so composite sources need no
  // temporary per component and the hot sensitivity loop stays heap-free.
  for (const auto& comp : src.components) {
    PSMN_CHECK(comp.device != nullptr, "injection component has no device");
    Stamper s(x, t, n_);
    s.attachVectors(bf, bq);
    s.setStampScale(comp.weight);
    if (src.kind == InjectionSource::Kind::kMismatch) {
      if (bf) comp.device->mismatchStampF(comp.index, s);
      if (bq) comp.device->mismatchStampQ(comp.index, s);
    } else if (bf) {
      comp.device->noiseStamp(comp.index, s);
      // Physical noise sources are current injections only (no charge part).
    }
  }
}

std::vector<InjectionSource> MnaSystem::collectSources(
    bool includeMismatch, bool includePhysical) const {
  std::vector<InjectionSource> out;
  if (includeMismatch) {
    for (const auto& ref : netlist_->mismatchParams()) {
      InjectionSource s;
      s.kind = InjectionSource::Kind::kMismatch;
      s.name = ref.param.name;
      s.components = {{ref.device, ref.index, 1.0}};
      s.sigma = ref.param.sigma;
      s.mkind = ref.param.kind;
      out.push_back(std::move(s));
    }
  }
  if (includePhysical) {
    for (const auto& ref : netlist_->noiseSources()) {
      InjectionSource s;
      s.kind = ref.desc.kind == NoiseKind::kWhite
                   ? InjectionSource::Kind::kPhysicalWhite
                   : InjectionSource::Kind::kPhysicalFlicker;
      s.name = ref.desc.name;
      s.components = {{ref.device, ref.index, 1.0}};
      s.sigma = 1.0;
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<std::string> MnaSystem::suspectUnknowns(std::span<const Real> f,
                                                    size_t count) const {
  // Rank by "badness": non-finite entries outrank every finite one; finite
  // entries rank by magnitude. Cold path (failure reporting only).
  std::vector<size_t> order(std::min(f.size(), n_));
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto badness = [&](size_t i) {
    return std::isfinite(f[i]) ? std::fabs(f[i])
                               : std::numeric_limits<Real>::infinity();
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return badness(a) > badness(b); });
  std::vector<std::string> names;
  for (size_t k = 0; k < order.size() && k < count; ++k) {
    if (badness(order[k]) == 0.0) break;  // a zero residual is not suspect
    names.push_back(netlist_->unknownName(order[k]));
  }
  return names;
}

std::vector<Real> MnaSystem::collectBreakpoints(Real t0, Real t1) const {
  std::vector<Real> bps;
  for (const auto& dev : netlist_->devices()) {
    dev->collectBreakpoints(t0, t1, bps);
  }
  std::sort(bps.begin(), bps.end());
  // Merge breakpoints closer than a relative epsilon.
  const Real eps = 1e-12 * std::max(std::fabs(t0), std::fabs(t1)) + 1e-21;
  std::vector<Real> out;
  for (Real t : bps) {
    if (out.empty() || t - out.back() > eps) out.push_back(t);
  }
  return out;
}

}  // namespace psmn
