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

}  // namespace psmn
