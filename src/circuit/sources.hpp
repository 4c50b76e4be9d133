// Independent sources: time-dependent waveforms (DC / PULSE / SIN / PWL)
// driving voltage and current sources.
#pragma once

#include "circuit/device.hpp"
#include "circuit/netlist.hpp"

namespace psmn {

/// SPICE-style source waveform.
class SourceWave {
 public:
  /// Constant value.
  static SourceWave dc(Real value);
  /// PULSE(v1 v2 delay rise fall width period). period==0 -> single pulse.
  static SourceWave pulse(Real v1, Real v2, Real delay, Real rise, Real fall,
                          Real width, Real period);
  /// SIN(offset amplitude freq [delay] [damping]).
  static SourceWave sine(Real offset, Real amplitude, Real freq,
                         Real delay = 0.0, Real damping = 0.0);
  /// Piecewise linear; pairs of (time, value), times strictly increasing.
  /// If `period` > 0 the waveform repeats with that period.
  static SourceWave pwl(std::vector<Real> times, std::vector<Real> values,
                        Real period = 0.0);

  Real value(Real t) const;
  void collectBreakpoints(Real t0, Real t1, std::vector<Real>& out) const;

  /// The waveform period (0 = aperiodic / DC).
  Real period() const;

 private:
  enum class Kind { kDc, kPulse, kSine, kPwl };
  Kind kind_ = Kind::kDc;
  // DC
  Real dc_ = 0.0;
  // PULSE
  Real v1_ = 0.0, v2_ = 0.0, delay_ = 0.0, rise_ = 0.0, fall_ = 0.0,
       width_ = 0.0, period_ = 0.0;
  // SIN
  Real offset_ = 0.0, amplitude_ = 0.0, freq_ = 0.0, damping_ = 0.0;
  // PWL
  std::vector<Real> times_, values_;
};

/// Independent voltage source. Adds one branch-current unknown.
/// Branch equation: v(a) - v(b) - V(t)*sourceScale = 0.
class VSource : public Device {
 public:
  VSource(std::string name, NodeId a, NodeId b, SourceWave wave,
          const Netlist& nl)
      : Device(std::move(name)),
        a_(nl.nodeIndex(a)),
        b_(nl.nodeIndex(b)),
        wave_(std::move(wave)) {}

  void allocate(BranchAllocator& alloc) override {
    branch_ = alloc.allocate(name());
  }
  void declareStamps(StampPlan& plan) const override;
  void eval(Stamper& s) const override;
  void collectBreakpoints(Real t0, Real t1,
                          std::vector<Real>& out) const override;

  int branchIndex() const { return branch_; }
  const SourceWave& wave() const { return wave_; }
  void setWave(SourceWave w) { wave_ = std::move(w); }

 private:
  int a_, b_;
  int branch_ = -1;
  SourceWave wave_;
};

/// Independent current source; current I(t) flows a -> b internally
/// (i.e. out of node a, into node b).
class ISource : public Device {
 public:
  ISource(std::string name, NodeId a, NodeId b, SourceWave wave,
          const Netlist& nl)
      : Device(std::move(name)),
        a_(nl.nodeIndex(a)),
        b_(nl.nodeIndex(b)),
        wave_(std::move(wave)) {}

  void declareStamps(StampPlan& plan) const override;
  void eval(Stamper& s) const override;
  void collectBreakpoints(Real t0, Real t1,
                          std::vector<Real>& out) const override;

  int nodeA() const { return a_; }
  int nodeB() const { return b_; }
  const SourceWave& wave() const { return wave_; }
  void setWave(SourceWave w) { wave_ = std::move(w); }

 private:
  int a_, b_;
  SourceWave wave_;
};

}  // namespace psmn
