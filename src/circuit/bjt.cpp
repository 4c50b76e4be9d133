#include "circuit/bjt.hpp"

#include <cmath>

namespace psmn {

namespace {

/// Junction exponential with the same linearization the Diode uses: above
/// vmax = 40*vt the exponential continues with constant slope, so Newton
/// iterates stay finite without changing any realistic converged solution.
/// Returns the (limited) value of exp(v/vt) and its derivative.
void limexp(Real v, Real vt, Real& e, Real& de) {
  const Real vmax = 40.0 * vt;
  if (v <= vmax) {
    e = std::exp(v / vt);
    de = e / vt;
  } else {
    const Real e0 = std::exp(40.0);
    de = e0 / vt;
    e = e0 + de * (v - vmax);
  }
}

/// SPICE depletion charge: q(v) and c(v) = dq/dv for a junction with
/// zero-bias capacitance cj0, built-in potential vj, grading coefficient m.
/// Below fc*vj the classic power law; above it, the standard linear-in-v
/// capacitance extension (C1-continuous in q and c).
void depletion(Real v, Real cj0, Real vj, Real m, Real fc, Real& q, Real& c) {
  if (cj0 <= 0.0) {
    q = 0.0;
    c = 0.0;
    return;
  }
  const Real vfc = fc * vj;
  if (v < vfc) {
    const Real u = 1.0 - v / vj;
    const Real um = std::pow(u, -m);
    c = cj0 * um;
    q = cj0 * vj / (1.0 - m) * (1.0 - u * um);  // u*um = u^(1-m)
  } else {
    const Real f1 = vj / (1.0 - m) * (1.0 - std::pow(1.0 - fc, 1.0 - m));
    const Real f2 = std::pow(1.0 - fc, 1.0 + m);
    const Real f3 = 1.0 - fc * (1.0 + m);
    c = cj0 / f2 * (f3 + m * v / vj);
    q = cj0 * (f1 + (f3 * (v - vfc) +
                     0.5 * m / vj * (v * v - vfc * vfc)) / f2);
  }
}

}  // namespace

Bjt::Bjt(std::string name, NodeId c, NodeId b, NodeId e,
         std::shared_ptr<const BjtModel> model, Real area, Netlist& nl)
    : Device(std::move(name)),
      c_(nl.nodeIndex(c)),
      b_(nl.nodeIndex(b)),
      e_(nl.nodeIndex(e)),
      model_(std::move(model)),
      area_(area) {
  PSMN_CHECK(model_ != nullptr, "bjt requires a model");
  PSMN_CHECK(area_ > 0.0, "bjt area must be positive");
  PSMN_CHECK(model_->is > 0.0, "bjt IS must be positive");
  PSMN_CHECK(model_->bf > 0.0 && model_->br > 0.0,
             "bjt BF and BR must be positive");
  PSMN_CHECK(model_->vaf >= 0.0, "bjt VAF must be non-negative");
  PSMN_CHECK(model_->fc > 0.0 && model_->fc < 1.0, "bjt FC must be in (0,1)");
  // Series resistances get real internal nodes so the junctions see gmin
  // and gshunt treatment, the unknowns have "v(Q1:b)" names, and the
  // parasitics stamp as ordinary linear conductances.
  ci_ = model_->rc > 0.0 ? nl.nodeIndex(nl.node(this->name() + ":c")) : c_;
  bi_ = model_->rb > 0.0 ? nl.nodeIndex(nl.node(this->name() + ":b")) : b_;
  ei_ = model_->re > 0.0 ? nl.nodeIndex(nl.node(this->name() + ":e")) : e_;
}

Real Bjt::sigmaIs() const { return model_->ais / std::sqrt(area_); }
Real Bjt::sigmaBf() const { return model_->abf / std::sqrt(area_); }

Bjt::Core Bjt::evalCore(Real vbe, Real vbc) const {
  const BjtModel& m = *model_;
  const Real vt = m.thermalVoltage();
  const Real a = isScale();
  const Real isa = m.is * a;

  Real ebe, debe, ebc, debc;
  limexp(vbe, m.nf * vt, ebe, debe);
  limexp(vbc, m.nr * vt, ebc, debc);
  const Real ifwd = isa * (ebe - 1.0);
  const Real gif = isa * debe;
  const Real irev = isa * (ebc - 1.0);
  const Real gir = isa * debc;

  // Early factor 1 - vbc/VAF, smoothly clamped at a small positive floor:
  // a wild Newton iterate with vbc >> VAF must not reverse the transport
  // current's sign (that manufactures spurious solutions).
  Real early = 1.0, dEarly = 0.0;
  if (m.vaf > 0.0) {
    const Real emin = 0.05;
    const Real eps = 1e-3;
    const Real y = 1.0 - vbc / m.vaf - emin;
    const Real r = std::sqrt(y * y + 4.0 * eps * eps);
    early = emin + 0.5 * (y + r);
    dEarly = -0.5 * (1.0 + y / r) / m.vaf;
  }

  const Real bfEff = m.bf * (1.0 + dbf_);

  Core c{};
  c.ifwd = ifwd;
  c.ict = (ifwd - irev) * early;
  c.gctBe = gif * early;
  c.gctBc = -gir * early + (ifwd - irev) * dEarly;
  c.ibe = ifwd / bfEff;
  c.gpi = gif / bfEff;
  c.ibc = irev / m.br;
  c.gmu = gir / m.br;

  // Charges: diffusion (TF * I_F, B-E only) carries the IS mismatch scale;
  // depletion scales with the raw area factor.
  Real qd, cd;
  depletion(vbe, m.cje * area_, m.vje, m.mje, m.fc, qd, cd);
  c.qbe = m.tf * ifwd + qd;
  c.cbe = m.tf * gif + cd;
  depletion(vbc, m.cjc * area_, m.vjc, m.mjc, m.fc, qd, cd);
  c.qbc = qd;
  c.cbc = cd;
  return c;
}

void Bjt::declareStamps(StampPlan& plan) const {
  // G slots 0-8: the junction Jacobian, in eval's order.
  plan.g(ci_, bi_);
  plan.g(ci_, ci_);
  plan.g(ci_, ei_);
  plan.g(bi_, bi_);
  plan.g(bi_, ci_);
  plan.g(bi_, ei_);
  plan.g(ei_, bi_);
  plan.g(ei_, ci_);
  plan.g(ei_, ei_);
  plan.conductance(bi_, ei_);  // 9-12: gmin across B-E
  plan.conductance(bi_, ci_);  // 13-16: gmin across B-C
  // 17 on: the series parasitics present, in eval's order.
  if (ci_ != c_) plan.conductance(c_, ci_);
  if (bi_ != b_) plan.conductance(b_, bi_);
  if (ei_ != e_) plan.conductance(e_, ei_);
  plan.capacitance(bi_, ei_);  // C 0-3
  plan.capacitance(bi_, ci_);  // C 4-7
}

void Bjt::eval(Stamper& s) const {
  const Real sgn = model_->pnp ? -1.0 : 1.0;
  const Real vbe = sgn * (s.v(bi_) - s.v(ei_));
  const Real vbc = sgn * (s.v(bi_) - s.v(ci_));
  const Core c = evalCore(vbe, vbc);

  // Internal-frame node currents; physical current = sgn * internal.
  // Conductance entries are invariant under the sign flip (the sgn on the
  // current cancels the sgn in d v_hat/d v).
  s.addF(ci_, sgn * (c.ict - c.ibc));
  s.addF(bi_, sgn * (c.ibe + c.ibc));
  s.addF(ei_, -sgn * (c.ict + c.ibe));

  // Jacobian of the three node currents w.r.t. (vb, vc, ve); every row and
  // column sums to zero (KCL / ground invariance).
  s.addG(0, c.gctBe + c.gctBc - c.gmu);
  s.addG(1, -c.gctBc + c.gmu);
  s.addG(2, -c.gctBe);
  s.addG(3, c.gpi + c.gmu);
  s.addG(4, -c.gmu);
  s.addG(5, -c.gpi);
  s.addG(6, -(c.gctBe + c.gctBc + c.gpi));
  s.addG(7, c.gctBc);
  s.addG(8, c.gctBe + c.gpi);

  // Convergence aid across both junctions (diode idiom).
  s.stampCurrent(bi_, ei_, s.gmin() * (s.v(bi_) - s.v(ei_)));
  s.stampConductance(9, s.gmin());
  s.stampCurrent(bi_, ci_, s.gmin() * (s.v(bi_) - s.v(ci_)));
  s.stampConductance(13, s.gmin());

  // Junction charges, + plate at the base in the internal frame.
  s.stampCharge(bi_, ei_, sgn * c.qbe);
  s.stampCapacitance(0, c.cbe);
  s.stampCharge(bi_, ci_, sgn * c.qbc);
  s.stampCapacitance(4, c.cbc);

  // Series parasitics: plain conductances, resistance scaled as R/area.
  const BjtModel& m = *model_;
  int slot = 17;
  auto series = [&s, &slot, this](int ext, int internal, Real r) {
    if (internal == ext) return;
    const Real g = area_ / r;
    s.stampCurrent(ext, internal, g * (s.v(ext) - s.v(internal)));
    s.stampConductance(slot, g);
    slot += 4;
  };
  series(c_, ci_, m.rc);
  series(b_, bi_, m.rb);
  series(e_, ei_, m.re);
}

BjtOpPoint Bjt::opPoint(const Stamper& s) const {
  const Real sgn = model_->pnp ? -1.0 : 1.0;
  const Real vbe = sgn * (s.v(bi_) - s.v(ei_));
  const Real vbc = sgn * (s.v(bi_) - s.v(ci_));
  const Core c = evalCore(vbe, vbc);
  BjtOpPoint op;
  op.ic = sgn * (c.ict - c.ibc);
  op.ib = sgn * (c.ibe + c.ibc);
  op.gm = c.gctBe;
  op.gpi = c.gpi;
  // dIc/dvce at fixed vbe: vbc = vbe - vce, so go = -dIc/dvbc.
  op.go = c.gmu - c.gctBc;
  const Real von = 10.0 * model_->thermalVoltage();
  op.forwardActive = vbe > von && vbc < von;
  op.saturated = vbe > von && vbc > von;
  return op;
}

MismatchParam Bjt::mismatchParam(size_t k) const {
  PSMN_CHECK(k < 2, "bad mismatch index");
  // Both are relative factors; kBetaRel gets the -95% truncation in the MC
  // engine that any (1 + delta) multiplier needs to stay physical.
  if (k == 0) return {name() + ".dis", MismatchKind::kBetaRel, sigmaIs(), true};
  return {name() + ".dbf", MismatchKind::kBetaRel, sigmaBf(), true};
}

void Bjt::setMismatchDelta(size_t k, Real delta) {
  PSMN_CHECK(k < 2, "bad mismatch index");
  PSMN_CHECK(1.0 + delta > 0.0, "mismatch drove bjt parameter non-positive");
  if (k == 0) {
    dis_ = delta;
  } else {
    dbf_ = delta;
  }
}

Real Bjt::mismatchDelta(size_t k) const {
  PSMN_CHECK(k < 2, "bad mismatch index");
  return k == 0 ? dis_ : dbf_;
}

void Bjt::mismatchStampF(size_t k, Stamper& s) const {
  PSMN_CHECK(k < 2, "bad mismatch index");
  const Real sgn = model_->pnp ? -1.0 : 1.0;
  const Real vbe = sgn * (s.v(bi_) - s.v(ei_));
  const Real vbc = sgn * (s.v(bi_) - s.v(ci_));
  const Core c = evalCore(vbe, vbc);
  if (k == 0) {
    // dIS/IS scales every junction current: dI/d(dis) = I/(1+dis).
    const Real w = 1.0 / (1.0 + dis_);
    s.addF(ci_, sgn * w * (c.ict - c.ibc));
    s.addF(bi_, sgn * w * (c.ibe + c.ibc));
    s.addF(ei_, -sgn * w * (c.ict + c.ibe));
  } else {
    // dBF/BF only rescales the forward base current:
    // Ibe = I_F/(BF*(1+dbf)) so dIbe/d(dbf) = -Ibe/(1+dbf).
    const Real d = -c.ibe / (1.0 + dbf_);
    s.addF(bi_, sgn * d);
    s.addF(ei_, -sgn * d);
  }
}

void Bjt::mismatchStampQ(size_t k, Stamper& s) const {
  PSMN_CHECK(k < 2, "bad mismatch index");
  if (k != 0 || model_->tf <= 0.0) return;
  // The diffusion charge TF*I_F carries the IS scale, so dIS/IS has a
  // charge derivative too: dQbe/d(dis) = TF*I_F/(1+dis).
  const Real sgn = model_->pnp ? -1.0 : 1.0;
  const Real vbe = sgn * (s.v(bi_) - s.v(ei_));
  const Real vbc = sgn * (s.v(bi_) - s.v(ci_));
  const Core c = evalCore(vbe, vbc);
  const Real dq = model_->tf * c.ifwd / (1.0 + dis_);
  s.addQ(bi_, sgn * dq);
  s.addQ(ei_, -sgn * dq);
}

}  // namespace psmn
