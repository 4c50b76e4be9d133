#include "circuit/sources.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace psmn {

SourceWave SourceWave::dc(Real value) {
  SourceWave w;
  w.kind_ = Kind::kDc;
  w.dc_ = value;
  return w;
}

SourceWave SourceWave::pulse(Real v1, Real v2, Real delay, Real rise,
                             Real fall, Real width, Real period) {
  PSMN_CHECK(rise > 0.0 && fall > 0.0,
             "PULSE rise/fall must be positive (finite slew keeps the DAE "
             "well-posed)");
  PSMN_CHECK(period == 0.0 || period >= delay + rise + width + fall,
             "PULSE period shorter than one pulse");
  SourceWave w;
  w.kind_ = Kind::kPulse;
  w.v1_ = v1; w.v2_ = v2; w.delay_ = delay; w.rise_ = rise; w.fall_ = fall;
  w.width_ = width; w.period_ = period;
  return w;
}

SourceWave SourceWave::sine(Real offset, Real amplitude, Real freq, Real delay,
                            Real damping) {
  PSMN_CHECK(freq > 0.0, "SIN frequency must be positive");
  SourceWave w;
  w.kind_ = Kind::kSine;
  w.offset_ = offset; w.amplitude_ = amplitude; w.freq_ = freq;
  w.delay_ = delay; w.damping_ = damping;
  return w;
}

SourceWave SourceWave::pwl(std::vector<Real> times, std::vector<Real> values,
                           Real period) {
  PSMN_CHECK(times.size() == values.size() && times.size() >= 2,
             "PWL needs >= 2 points");
  PSMN_CHECK(std::is_sorted(times.begin(), times.end(),
                            [](Real a, Real b) { return a <= b; }) ||
                 std::is_sorted(times.begin(), times.end()),
             "PWL times must be increasing");
  for (size_t i = 1; i < times.size(); ++i)
    PSMN_CHECK(times[i] > times[i - 1], "PWL times must be strictly increasing");
  if (period > 0.0)
    PSMN_CHECK(times.back() <= period, "PWL points exceed the stated period");
  SourceWave w;
  w.kind_ = Kind::kPwl;
  w.times_ = std::move(times);
  w.values_ = std::move(values);
  w.period_ = period;
  return w;
}

Real SourceWave::period() const {
  switch (kind_) {
    case Kind::kDc: return 0.0;
    case Kind::kPulse: return period_;
    case Kind::kSine: return 1.0 / freq_;
    case Kind::kPwl: return period_;
  }
  return 0.0;
}

Real SourceWave::value(Real t) const {
  switch (kind_) {
    case Kind::kDc:
      return dc_;
    case Kind::kPulse: {
      Real tl = t - delay_;
      if (period_ > 0.0 && tl >= 0.0) tl = std::fmod(tl, period_);
      if (tl < 0.0) return v1_;
      if (tl < rise_) return v1_ + (v2_ - v1_) * tl / rise_;
      if (tl < rise_ + width_) return v2_;
      if (tl < rise_ + width_ + fall_)
        return v2_ + (v1_ - v2_) * (tl - rise_ - width_) / fall_;
      return v1_;
    }
    case Kind::kSine: {
      if (t < delay_) return offset_;
      const Real tau = t - delay_;
      const Real damp = damping_ > 0.0 ? std::exp(-damping_ * tau) : 1.0;
      return offset_ + amplitude_ * damp *
                           std::sin(2.0 * std::numbers::pi_v<Real> * freq_ * tau);
    }
    case Kind::kPwl: {
      Real tl = t;
      if (period_ > 0.0) tl = std::fmod(t, period_);
      if (tl <= times_.front()) {
        if (period_ > 0.0) {
          // interpolate across the wrap between last point and first+period
          const Real span = period_ - times_.back() + times_.front();
          if (span <= 0.0) return values_.front();
          const Real u = (tl + period_ - times_.back()) / span;
          return values_.back() + u * (values_.front() - values_.back());
        }
        return values_.front();
      }
      if (tl >= times_.back()) {
        if (period_ > 0.0) {
          const Real span = period_ - times_.back() + times_.front();
          if (span <= 0.0) return values_.back();
          const Real u = (tl - times_.back()) / span;
          return values_.back() + u * (values_.front() - values_.back());
        }
        return values_.back();
      }
      const auto it = std::upper_bound(times_.begin(), times_.end(), tl);
      const size_t hi = static_cast<size_t>(it - times_.begin());
      const size_t lo = hi - 1;
      const Real u = (tl - times_[lo]) / (times_[hi] - times_[lo]);
      return values_[lo] + u * (values_[hi] - values_[lo]);
    }
  }
  return 0.0;
}

void SourceWave::collectBreakpoints(Real t0, Real t1,
                                    std::vector<Real>& out) const {
  auto push = [&](Real t) {
    if (t > t0 && t <= t1) out.push_back(t);
  };
  switch (kind_) {
    case Kind::kDc:
    case Kind::kSine:
      return;
    case Kind::kPulse: {
      const Real corners[4] = {0.0, rise_, rise_ + width_,
                               rise_ + width_ + fall_};
      if (period_ <= 0.0) {
        for (Real c : corners) push(delay_ + c);
        return;
      }
      const Real firstCycle = std::floor((t0 - delay_) / period_);
      for (Real cyc = std::max(0.0, firstCycle);
           delay_ + cyc * period_ <= t1; cyc += 1.0) {
        for (Real c : corners) push(delay_ + cyc * period_ + c);
      }
      return;
    }
    case Kind::kPwl: {
      if (period_ <= 0.0) {
        for (Real t : times_) push(t);
        return;
      }
      const Real firstCycle = std::floor(t0 / period_);
      for (Real cyc = std::max(0.0, firstCycle); cyc * period_ <= t1;
           cyc += 1.0) {
        for (Real t : times_) push(cyc * period_ + t);
      }
      return;
    }
  }
}

void VSource::declareStamps(StampPlan& plan) const {
  plan.branch(a_, b_, branch_);
}

void VSource::eval(Stamper& s) const {
  // KCL: branch current flows a -> b through the source.
  const Real i = s.v(branch_);
  s.addF(a_, i);
  s.addF(b_, -i);
  // Branch equation: v(a) - v(b) - V(t) = 0.
  s.addF(branch_, s.v(a_) - s.v(b_) - wave_.value(s.time()) * s.sourceScale());
  s.stampBranch(0);
}

void VSource::collectBreakpoints(Real t0, Real t1,
                                 std::vector<Real>& out) const {
  wave_.collectBreakpoints(t0, t1, out);
}

void ISource::declareStamps(StampPlan&) const {}

void ISource::eval(Stamper& s) const {
  const Real i = wave_.value(s.time()) * s.sourceScale();
  s.stampCurrent(a_, b_, i);
}

void ISource::collectBreakpoints(Real t0, Real t1,
                                 std::vector<Real>& out) const {
  wave_.collectBreakpoints(t0, t1, out);
}

}  // namespace psmn
