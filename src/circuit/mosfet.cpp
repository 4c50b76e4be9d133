#include "circuit/mosfet.hpp"

#include <cmath>
#include <utility>

namespace psmn {

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
               std::shared_ptr<const MosModel> model, Real w, Real l,
               const Netlist& nl)
    : Device(std::move(name)),
      d_(nl.nodeIndex(d)),
      g_(nl.nodeIndex(g)),
      s_(nl.nodeIndex(s)),
      b_(nl.nodeIndex(b)),
      model_(std::move(model)),
      w_(w),
      l_(l) {
  PSMN_CHECK(model_ != nullptr, "mosfet requires a model");
  PSMN_CHECK(w_ > 0.0 && l_ > 0.0, "mosfet W and L must be positive");
  setWidth(w_);
}

void Mosfet::setWidth(Real w) {
  PSMN_CHECK(w > 0.0, "mosfet W must be positive");
  w_ = w;
  const MosModel& m = *model_;
  cgs_ = 0.5 * m.cox * w_ * l_ + m.cgso * w_;
  cgd_ = 0.5 * m.cox * w_ * l_ + m.cgdo * w_;
  cdb_ = m.cj * w_ * m.ldiff;
  csb_ = m.cj * w_ * m.ldiff;
  kpWl_ = m.kp * (w_ / l_);
  sqrtPhi_ = std::sqrt(m.phi);
  vsmooth4_ = 4.0 * m.vsmooth * m.vsmooth;
  body0_ = bodyEffect(0.0);
}

Real Mosfet::sigmaVt() const { return model_->avt / std::sqrt(w_ * l_); }

Real Mosfet::sigmaBetaRel() const {
  return model_->abeta / std::sqrt(w_ * l_);
}

Mosfet::Body Mosfet::bodyEffect(Real vbs) const {
  const MosModel& m = *model_;
  if (!(m.gamma > 0.0)) return {0.0, 0.0};
  // A smooth clamp of (phi - vbs) at eps^2 keeps the sqrt real for
  // forward-biased bulk excursions during Newton iterations.
  const Real eps = 1e-3;
  const Real argRaw = m.phi - vbs;
  const Real argS = 0.5 * (argRaw + std::sqrt(argRaw * argRaw + 4.0 * eps * eps));
  const Real dArg = 0.5 * (1.0 + argRaw / std::sqrt(argRaw * argRaw + 4.0 * eps * eps));
  const Real sqrtArg = std::sqrt(argS);
  // dvth/dvbs = gamma * d(sqrt(argS))/dvbs = gamma/(2 sqrtArg) * dArg * (-1)
  return {m.gamma * (sqrtArg - sqrtPhi_), -m.gamma * dArg / (2.0 * sqrtArg)};
}

Mosfet::Core Mosfet::evalCore(Real vgs, Real vds, Real vbs) const {
  const MosModel& m = *model_;
  const Body body = vbs == 0.0 ? body0_ : bodyEffect(vbs);
  const Real vth = m.vt0 + dvt_ + body.vth;
  const Real dvthDvbs = body.dvthDvbs;

  const Real vgst = vgs - vth;
  const Real s2 = std::sqrt(vgst * vgst + vsmooth4_);
  const Real veff = 0.5 * (vgst + s2);
  const Real dveff = 0.5 * (1.0 + vgst / s2);

  const Real beta = kpWl_ * (1.0 + dbeta_);
  const Real clm = 1.0 + m.lambda * vds;

  Core c{};
  c.veff = veff;
  Real dIdVeff;
  if (vds < veff) {
    // Triode.
    c.saturated = false;
    c.ids = beta * (veff - 0.5 * vds) * vds * clm;
    dIdVeff = beta * vds * clm;
    c.gds = beta * ((veff - vds) * clm + (veff - 0.5 * vds) * vds * m.lambda);
  } else {
    // Saturation.
    c.saturated = true;
    c.ids = 0.5 * beta * veff * veff * clm;
    dIdVeff = beta * veff * clm;
    c.gds = 0.5 * beta * veff * veff * m.lambda;
  }
  c.gm = dIdVeff * dveff;
  // vth depends on vbs; veff depends on vth.
  c.gmb = -dIdVeff * dveff * dvthDvbs;  // dvthDvbs <= 0 so gmb >= 0
  c.didvt = -dIdVeff * dveff;           // dIds/d(dvt), dvt adds to vth
  return c;
}

Mosfet::Frame Mosfet::frame(const Stamper& s) const {
  const Real sgn = model_->pmos ? -1.0 : 1.0;
  const Real vdHat = sgn * s.v(d_);
  const Real vsHat = sgn * s.v(s_);
  Frame f{};
  f.sgn = sgn;
  if (vdHat >= vsHat) {
    f.nd = d_; f.ns = s_; f.swapped = false;
  } else {
    f.nd = s_; f.ns = d_; f.swapped = true;
  }
  f.ng = g_;
  f.nb = b_;
  return f;
}

void Mosfet::declareStamps(StampPlan& plan) const {
  // G slots 0-7 in the unswapped frame (nd = d, ns = s), 8-15 in the
  // swapped one (nd = s, ns = d): the same positions in eval's order.
  for (const auto& [nd, ns] : {std::pair{d_, s_}, std::pair{s_, d_}}) {
    for (int eq : {nd, ns}) {
      plan.g(eq, g_);
      plan.g(eq, nd);
      plan.g(eq, b_);
      plan.g(eq, ns);
    }
  }
  // C slots 0-15: cgs, cgd, cdb, csb.
  plan.capacitance(g_, s_);
  plan.capacitance(g_, d_);
  plan.capacitance(d_, b_);
  plan.capacitance(s_, b_);
}

void Mosfet::eval(Stamper& s) const {
  const Frame fr = frame(s);
  const Real sgn = fr.sgn;
  const Real vgs = sgn * (s.v(fr.ng) - s.v(fr.ns));
  const Real vds = sgn * (s.v(fr.nd) - s.v(fr.ns));
  const Real vbs = sgn * (s.v(fr.nb) - s.v(fr.ns));
  const Core c = evalCore(vgs, vds, vbs);

  // Static current into internal drain, out of internal source. Physical
  // current = sgn * internal current; the conductance entries are invariant
  // under the sign flip (d v_hat/d v = sgn cancels sgn on the current).
  s.addF(fr.nd, sgn * c.ids);
  s.addF(fr.ns, -sgn * c.ids);
  const Real gtot = c.gm + c.gds + c.gmb;
  const int k = fr.swapped ? 8 : 0;
  s.addG(k, c.gm);
  s.addG(k + 1, c.gds);
  s.addG(k + 2, c.gmb);
  s.addG(k + 3, -gtot);
  s.addG(k + 4, -c.gm);
  s.addG(k + 5, -c.gds);
  s.addG(k + 6, -c.gmb);
  s.addG(k + 7, gtot);

  // Bias-independent capacitances on physical terminals.
  auto cap = [&s](int a, int b, int slot, Real c0) {
    s.stampCharge(a, b, c0 * (s.v(a) - s.v(b)));
    s.stampCapacitance(slot, c0);
  };
  cap(g_, s_, 0, cgs_);
  cap(g_, d_, 4, cgd_);
  cap(d_, b_, 8, cdb_);
  cap(s_, b_, 12, csb_);
}

MosOpPoint Mosfet::opPoint(const Stamper& s) const {
  const Frame fr = frame(s);
  const Real sgn = fr.sgn;
  const Core c = evalCore(sgn * (s.v(fr.ng) - s.v(fr.ns)),
                          sgn * (s.v(fr.nd) - s.v(fr.ns)),
                          sgn * (s.v(fr.nb) - s.v(fr.ns)));
  MosOpPoint op;
  // Report current into the physical drain terminal.
  op.ids = (fr.swapped ? -1.0 : 1.0) * sgn * c.ids;
  op.gm = c.gm;
  op.gds = c.gds;
  op.gmb = c.gmb;
  op.veff = c.veff;
  op.saturated = c.saturated;
  op.swapped = fr.swapped;
  return op;
}

MismatchParam Mosfet::mismatchParam(size_t k) const {
  PSMN_CHECK(k < 2, "bad mismatch index");
  if (k == 0) return {name() + ".dvt", MismatchKind::kVth, sigmaVt(), true};
  return {name() + ".dbeta", MismatchKind::kBetaRel, sigmaBetaRel(), true};
}

void Mosfet::setMismatchDelta(size_t k, Real delta) {
  PSMN_CHECK(k < 2, "bad mismatch index");
  if (k == 0) {
    dvt_ = delta;
  } else {
    PSMN_CHECK(1.0 + delta > 0.0, "mismatch drove beta non-positive");
    dbeta_ = delta;
  }
}

Real Mosfet::mismatchDelta(size_t k) const {
  PSMN_CHECK(k < 2, "bad mismatch index");
  return k == 0 ? dvt_ : dbeta_;
}

void Mosfet::mismatchStampF(size_t k, Stamper& s) const {
  PSMN_CHECK(k < 2, "bad mismatch index");
  const Frame fr = frame(s);
  const Real sgn = fr.sgn;
  const Core c = evalCore(sgn * (s.v(fr.ng) - s.v(fr.ns)),
                          sgn * (s.v(fr.nd) - s.v(fr.ns)),
                          sgn * (s.v(fr.nb) - s.v(fr.ns)));
  Real dIdp = c.didvt;
  if (k == 1) {
    // beta carries the factor (1 + dbeta): dIds/d(dbeta) = Ids / (1 + dbeta).
    dIdp = (1.0 + dbeta_) != 0.0 ? c.ids / (1.0 + dbeta_) : 0.0;
  }
  // dF/dp: physical drain-node residual changes by sgn * dIdp.
  s.addF(fr.nd, sgn * dIdp);
  s.addF(fr.ns, -sgn * dIdp);
}

}  // namespace psmn
