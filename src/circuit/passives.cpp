#include "circuit/passives.hpp"

namespace psmn {

// ---------------------------------------------------------------- Resistor

void Resistor::declareStamps(StampPlan& plan) const {
  plan.conductance(a_, b_);
}

void Resistor::eval(Stamper& s) const {
  const Real g = 1.0 / resistance();
  const Real v = s.v(a_) - s.v(b_);
  s.stampCurrent(a_, b_, g * v);
  s.stampConductance(0, g);
}

MismatchParam Resistor::mismatchParam(size_t k) const {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  return {name() + ".dr", MismatchKind::kResistance, sigma_, false};
}

void Resistor::setMismatchDelta(size_t k, Real delta) {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  PSMN_CHECK(ohms_ + delta > 0.0, "mismatch drove resistance non-positive");
  delta_ = delta;
}

Real Resistor::mismatchDelta(size_t k) const {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  return delta_;
}

void Resistor::mismatchStampF(size_t k, Stamper& s) const {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  // I = (va-vb)/R;  dI/dR = -(va-vb)/R^2 = -I/R.
  const Real r = resistance();
  const Real i = (s.v(a_) - s.v(b_)) / r;
  s.stampCurrent(a_, b_, -i / r);
}

// --------------------------------------------------------------- Capacitor

void Capacitor::declareStamps(StampPlan& plan) const {
  plan.capacitance(a_, b_);
}

void Capacitor::eval(Stamper& s) const {
  const Real c = capacitance();
  const Real v = s.v(a_) - s.v(b_);
  s.stampCharge(a_, b_, c * v);
  s.stampCapacitance(0, c);
}

MismatchParam Capacitor::mismatchParam(size_t k) const {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  return {name() + ".dc", MismatchKind::kCapacitance, sigma_, false};
}

void Capacitor::setMismatchDelta(size_t k, Real delta) {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  PSMN_CHECK(farads_ + delta > 0.0, "mismatch drove capacitance non-positive");
  delta_ = delta;
}

Real Capacitor::mismatchDelta(size_t k) const {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  return delta_;
}

void Capacitor::mismatchStampQ(size_t k, Stamper& s) const {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  // Q = C(va-vb);  dQ/dC = va-vb.
  s.stampCharge(a_, b_, s.v(a_) - s.v(b_));
}

// ---------------------------------------------------------------- Inductor

void Inductor::declareStamps(StampPlan& plan) const {
  plan.branch(a_, b_, branch_);
  plan.c(branch_, branch_);
}

void Inductor::eval(Stamper& s) const {
  // KCL: branch current i flows a -> b.
  const Real i = s.v(branch_);
  s.addF(a_, i);
  s.addF(b_, -i);
  // Branch equation: v(a) - v(b) - d(phi)/dt = 0 with phi = L*i, expressed
  // as f_branch = v(a)-v(b), q_branch = -L*i.
  s.addF(branch_, s.v(a_) - s.v(b_));
  s.stampBranch(0);
  const Real l = inductance();
  s.addQ(branch_, -l * i);
  s.addC(0, -l);
}

MismatchParam Inductor::mismatchParam(size_t k) const {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  return {name() + ".dl", MismatchKind::kInductance, sigma_, false};
}

void Inductor::setMismatchDelta(size_t k, Real delta) {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  PSMN_CHECK(henries_ + delta > 0.0, "mismatch drove inductance non-positive");
  delta_ = delta;
}

Real Inductor::mismatchDelta(size_t k) const {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  return delta_;
}

void Inductor::mismatchStampQ(size_t k, Stamper& s) const {
  PSMN_CHECK(k == 0 && sigma_ > 0.0, "bad mismatch index");
  // q_branch = -L*i;  dq/dL = -i.
  s.addQ(branch_, -s.v(branch_));
}

}  // namespace psmn
