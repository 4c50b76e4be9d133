#include "circuit/controlled.hpp"

namespace psmn {

void Vcvs::declareStamps(StampPlan& plan) const {
  plan.branch(a_, b_, branch_);
  for (const auto& t : terms_) {
    plan.g(branch_, t.p);
    plan.g(branch_, t.n);
  }
}

void Vcvs::eval(Stamper& s) const {
  const Real i = s.v(branch_);
  s.addF(a_, i);
  s.addF(b_, -i);
  s.stampBranch(0);

  Real rhs = s.v(a_) - s.v(b_) - offset_;
  int slot = 4;
  for (const auto& t : terms_) {
    rhs -= t.gain * (s.v(t.p) - s.v(t.n));
    s.addG(slot++, -t.gain);
    s.addG(slot++, t.gain);
  }
  s.addF(branch_, rhs);
}

void Vccs::declareStamps(StampPlan& plan) const {
  for (const auto& t : terms_) {
    plan.g(a_, t.p);
    plan.g(a_, t.n);
    plan.g(b_, t.p);
    plan.g(b_, t.n);
  }
}

void Vccs::eval(Stamper& s) const {
  Real i = 0.0;
  int slot = 0;
  for (const auto& t : terms_) {
    i += t.gain * (s.v(t.p) - s.v(t.n));
    s.addG(slot++, t.gain);
    s.addG(slot++, -t.gain);
    s.addG(slot++, -t.gain);
    s.addG(slot++, t.gain);
  }
  s.addF(a_, i);
  s.addF(b_, -i);
}

void Ccvs::declareStamps(StampPlan& plan) const {
  plan.branch(a_, b_, branch_);
  plan.g(branch_, ctrl_);
}

void Ccvs::eval(Stamper& s) const {
  const Real i = s.v(branch_);
  s.addF(a_, i);
  s.addF(b_, -i);
  s.addF(branch_, s.v(a_) - s.v(b_) - r_ * s.v(ctrl_));
  s.stampBranch(0);
  s.addG(4, -r_);
}

void Cccs::declareStamps(StampPlan& plan) const {
  plan.g(a_, ctrl_);
  plan.g(b_, ctrl_);
}

void Cccs::eval(Stamper& s) const {
  const Real i = gain_ * s.v(ctrl_);
  s.addF(a_, i);
  s.addF(b_, -i);
  s.addG(0, gain_);
  s.addG(1, -gain_);
}

}  // namespace psmn
