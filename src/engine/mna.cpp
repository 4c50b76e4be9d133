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

  // Every device's declared positions, concatenated in netlist order.
  using Position = StampPlan::Position;
  std::vector<Position> gPos, cPos;
  for (const auto& dev : netlist.devices()) {
    gBegin_.push_back(gPos.size());
    cBegin_.push_back(cPos.size());
    StampPlan plan;
    dev->declareStamps(plan);
    gPos.insert(gPos.end(), plan.gPositions().begin(), plan.gPositions().end());
    cPos.insert(cPos.end(), plan.cPositions().begin(), plan.cPositions().end());
  }

  const int n = static_cast<int>(n_);
  const int diagonals = static_cast<int>(nodeUnknowns_);
  auto freeze = [n](const std::vector<Position>& pos, int diag) {
    std::vector<Triplet<Real>> trips;
    for (const auto& [eq, var] : pos) {
      if (eq >= 0 && var >= 0) trips.push_back({eq, var, 0.0});
    }
    for (int i = 0; i < diag; ++i) trips.push_back({i, i, 0.0});
    return RealSparse::fromTriplets(static_cast<size_t>(n),
                                    static_cast<size_t>(n), trips);
  };
  gPattern_ = freeze(gPos, diagonals);
  cPattern_ = freeze(cPos, 0);

  auto slotOf = [](RealSparse& pattern, int eq, int var) {
    return static_cast<int>(pattern.find(eq, var) - pattern.values().data());
  };
  auto fill = [&](const std::vector<Position>& pos, RealSparse& pattern,
                  std::vector<int>& sparse, std::vector<int>& dense) {
    for (const auto& [eq, var] : pos) {
      const bool ground = eq < 0 || var < 0;
      sparse.push_back(ground ? -1 : slotOf(pattern, eq, var));
      dense.push_back(ground ? -1 : eq * n + var);
    }
  };
  fill(gPos, gPattern_, sparseSlots_.g, denseSlots_.g);
  fill(cPos, cPattern_, sparseSlots_.c, denseSlots_.c);
  for (int i = 0; i < diagonals; ++i) {
    sparseSlots_.diag.push_back(slotOf(gPattern_, i, i));
    denseSlots_.diag.push_back(i * n + i);
  }
}

void MnaSystem::stamp(std::span<const Real> x, Real t, RealVector* f,
                      RealVector* q, Real* g, Real* c,
                      const SlotTables& slots, const EvalOptions& opt) const {
  Stamper s(x, t, n_);
  s.attachVectors(f, q);
  s.attachMatrices(g, c);
  s.setSourceScale(opt.sourceScale);
  const auto& devices = netlist_->devices();
  for (size_t d = 0; d < devices.size(); ++d) {
    s.bindSlots(slots.g.data() + gBegin_[d], slots.c.data() + cBegin_[d]);
    devices[d]->eval(s);
  }

  if (opt.gshunt > 0.0) {
    for (size_t i = 0; i < nodeUnknowns_; ++i) {
      if (f) (*f)[i] += opt.gshunt * x[i];
      if (g) g[slots.diag[i]] += opt.gshunt;
    }
  }
  if (f && faultShouldFire("mna.eval")) {
    (*f)[0] = std::numeric_limits<Real>::quiet_NaN();
  }
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
  stamp(x, t, f, q, g ? g->data() : nullptr, c ? c->data() : nullptr,
        denseSlots_, opt);
}

void MnaSystem::evalSparse(std::span<const Real> x, Real t, RealVector* f,
                           RealVector* q, RealSparse* g, RealSparse* c,
                           const EvalOptions& opt) const {
  PSMN_CHECK(x.size() == n_, "state size mismatch");
  telemetryCount(Counter::kMnaEvals);
  PSMN_CHECK(g != nullptr || c != nullptr,
             "evalSparse needs a matrix target; use evalDense for f/q only");
  if (f) f->assign(n_, 0.0);
  if (q) q->assign(n_, 0.0);
  auto values = [this](RealSparse* m, const RealSparse& pattern) -> Real* {
    if (m == nullptr) return nullptr;
    if (m->rows() != n_) *m = pattern;
    PSMN_CHECK(m->cols() == n_ && m->nonZeros() == pattern.nonZeros(),
               "evalSparse: matrix is not on this system's pattern");
    m->zeroValues();
    return m->values().data();
  };
  stamp(x, t, f, q, values(g, gPattern_), values(c, cPattern_), sparseSlots_,
        opt);
}

void MnaSystem::evalInjection(const InjectionSource& src,
                              std::span<const Real> x, Real t, RealVector* bf,
                              RealVector* bq,
                              std::optional<std::span<const int>> rows) const {
  PSMN_CHECK(x.size() == n_, "state size mismatch");
  for (RealVector* v : {bf, bq}) {
    if (v == nullptr) continue;
    if (!rows || v->size() != n_) {
      v->assign(n_, 0.0);
    } else {
      for (int i : *rows) (*v)[static_cast<size_t>(i)] = 0.0;
    }
  }
  PSMN_CHECK(!src.components.empty(), "injection source has no components");

  // Weighted accumulation straight into the output vectors: the stamper's
  // stamp scale carries the component weight, so composite sources need no
  // temporary per component and the hot sensitivity loop stays heap-free.
  for (const auto& comp : src.components) {
    PSMN_CHECK(comp.device != nullptr, "injection component has no device");
    Stamper s(x, t, n_);
    s.attachVectors(bf, bq);
    s.setStampScale(comp.weight);
    if (bf) comp.device->mismatchStampF(comp.index, s);
    if (bq) comp.device->mismatchStampQ(comp.index, s);
  }
}

InjectionRows::InjectionRows(std::span<const InjectionSource> sources) {
  // One plan takes every source's declarations in turn: a source's are the
  // positions appended since it began.
  StampPlan plan;
  const auto take = [&](const std::vector<StampPlan::Position>& list,
                        size_t from) {
    for (size_t i = from; i < list.size(); ++i) {
      if (list[i].eq >= 0) flat.push_back(list[i].eq);
    }
  };
  begin.reserve(sources.size() + 1);
  begin.push_back(0);
  for (const InjectionSource& src : sources) {
    const size_t g0 = plan.gPositions().size();
    const size_t c0 = plan.cPositions().size();
    for (const auto& comp : src.components) comp.device->declareStamps(plan);
    take(plan.gPositions(), g0);
    take(plan.cPositions(), c0);
    const auto first = flat.begin() + static_cast<std::ptrdiff_t>(begin.back());
    std::sort(first, flat.end());
    flat.erase(std::unique(first, flat.end()), flat.end());
    begin.push_back(flat.size());
  }
}

std::vector<InjectionSource> MnaSystem::collectSources(
    bool includeMismatch, bool includePhysical) const {
  if (!includeMismatch || includePhysical) {
    throw Error("collectSources: mismatch is the only source kind");
  }
  std::vector<InjectionSource> out;
  for (const auto& ref : netlist_->mismatchParams()) {
    InjectionSource s;
    s.name = ref.param.name;
    s.components = {{ref.device, ref.index, 1.0}};
    s.sigma = ref.param.sigma;
    out.push_back(std::move(s));
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
