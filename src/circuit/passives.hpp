// Passive devices with optional mismatch (paper Fig. 3): resistor,
// capacitor, inductor.
//
// Mismatch pseudo-noise equivalents (paper Fig. 3):
//   R: dF/dR  = -(I_R / R) between the terminals       (current-noise form
//      of the series voltage source with PSD sigmaR^2 * I_R^2 / R^2)
//   C: dQ/dC  = V_C between the terminals (enters the LPTV rhs as d/dt)
//   L: dPhi/dL = I_L on the branch equation
#pragma once

#include "circuit/device.hpp"
#include "circuit/netlist.hpp"

namespace psmn {

class Resistor : public Device {
 public:
  /// `sigma` is the absolute std-dev of the resistance mismatch (ohms).
  Resistor(std::string name, NodeId a, NodeId b, Real ohms, const Netlist& nl,
           Real sigma = 0.0)
      : Device(std::move(name)),
        a_(nl.nodeIndex(a)),
        b_(nl.nodeIndex(b)),
        ohms_(ohms),
        sigma_(sigma) {
    PSMN_CHECK(ohms > 0.0, "resistance must be positive");
    PSMN_CHECK(sigma >= 0.0, "sigma must be non-negative");
  }

  void declareStamps(StampPlan& plan) const override;
  void eval(Stamper& s) const override;

  size_t mismatchCount() const override { return sigma_ > 0.0 ? 1 : 0; }
  MismatchParam mismatchParam(size_t k) const override;
  void setMismatchDelta(size_t k, Real delta) override;
  Real mismatchDelta(size_t k) const override;
  void mismatchStampF(size_t k, Stamper& s) const override;

  Real resistance() const { return ohms_ + delta_; }
  Real nominal() const { return ohms_; }

 private:
  int a_, b_;
  Real ohms_;
  Real sigma_;
  Real delta_ = 0.0;
};

class Capacitor : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, Real farads,
            const Netlist& nl, Real sigma = 0.0)
      : Device(std::move(name)),
        a_(nl.nodeIndex(a)),
        b_(nl.nodeIndex(b)),
        farads_(farads),
        sigma_(sigma) {
    PSMN_CHECK(farads > 0.0, "capacitance must be positive");
    PSMN_CHECK(sigma >= 0.0, "sigma must be non-negative");
  }

  void declareStamps(StampPlan& plan) const override;
  void eval(Stamper& s) const override;

  size_t mismatchCount() const override { return sigma_ > 0.0 ? 1 : 0; }
  MismatchParam mismatchParam(size_t k) const override;
  void setMismatchDelta(size_t k, Real delta) override;
  Real mismatchDelta(size_t k) const override;
  void mismatchStampF(size_t, Stamper&) const override {}
  void mismatchStampQ(size_t k, Stamper& s) const override;

  Real capacitance() const { return farads_ + delta_; }
  Real nominal() const { return farads_; }

 private:
  int a_, b_;
  Real farads_;
  Real sigma_;
  Real delta_ = 0.0;
};

class Inductor : public Device {
 public:
  Inductor(std::string name, NodeId a, NodeId b, Real henries,
           const Netlist& nl, Real sigma = 0.0)
      : Device(std::move(name)),
        a_(nl.nodeIndex(a)),
        b_(nl.nodeIndex(b)),
        henries_(henries),
        sigma_(sigma) {
    PSMN_CHECK(henries > 0.0, "inductance must be positive");
    PSMN_CHECK(sigma >= 0.0, "sigma must be non-negative");
  }

  void allocate(BranchAllocator& alloc) override {
    branch_ = alloc.allocate(name());
  }
  void declareStamps(StampPlan& plan) const override;
  void eval(Stamper& s) const override;

  size_t mismatchCount() const override { return sigma_ > 0.0 ? 1 : 0; }
  MismatchParam mismatchParam(size_t k) const override;
  void setMismatchDelta(size_t k, Real delta) override;
  Real mismatchDelta(size_t k) const override;
  void mismatchStampF(size_t, Stamper&) const override {}
  void mismatchStampQ(size_t k, Stamper& s) const override;

  Real inductance() const { return henries_ + delta_; }
  int branchIndex() const { return branch_; }

 private:
  int a_, b_;
  int branch_ = -1;
  Real henries_;
  Real sigma_;
  Real delta_ = 0.0;
};

}  // namespace psmn
