#include "circuit/controlled.hpp"

namespace psmn {

void Vcvs::eval(Stamper& s) const {
  const Real i = s.v(branch_);
  s.addF(a_, i);
  s.addF(b_, -i);
  s.addG(a_, branch_, 1.0);
  s.addG(b_, branch_, -1.0);

  Real rhs = s.v(a_) - s.v(b_) - offset_;
  s.addG(branch_, a_, 1.0);
  s.addG(branch_, b_, -1.0);
  for (const auto& t : terms_) {
    rhs -= t.gain * (s.v(t.p) - s.v(t.n));
    s.addG(branch_, t.p, -t.gain);
    s.addG(branch_, t.n, t.gain);
  }
  s.addF(branch_, rhs);
}

void Vccs::eval(Stamper& s) const {
  Real i = 0.0;
  for (const auto& t : terms_) {
    i += t.gain * (s.v(t.p) - s.v(t.n));
    s.addG(a_, t.p, t.gain);
    s.addG(a_, t.n, -t.gain);
    s.addG(b_, t.p, -t.gain);
    s.addG(b_, t.n, t.gain);
  }
  s.addF(a_, i);
  s.addF(b_, -i);
}

void Ccvs::eval(Stamper& s) const {
  const Real i = s.v(branch_);
  s.addF(a_, i);
  s.addF(b_, -i);
  s.addG(a_, branch_, 1.0);
  s.addG(b_, branch_, -1.0);

  s.addF(branch_, s.v(a_) - s.v(b_) - r_ * s.v(ctrl_));
  s.addG(branch_, a_, 1.0);
  s.addG(branch_, b_, -1.0);
  s.addG(branch_, ctrl_, -r_);
}

void Cccs::eval(Stamper& s) const {
  const Real i = gain_ * s.v(ctrl_);
  s.addF(a_, i);
  s.addF(b_, -i);
  s.addG(a_, ctrl_, gain_);
  s.addG(b_, ctrl_, -gain_);
}

}  // namespace psmn
