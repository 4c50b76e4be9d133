// Behavioral pseudo-noise element — the C++ equivalent of the paper's
// Verilog-A pseudo-noise modules (Fig. 4b).
//
// Injects nothing into the nominal circuit when its delta is zero, but
// exposes one mismatch parameter whose injection is a current from node a
// to node b with a user-defined bias-dependent modulation m(x):
//   i = delta * m(x),  dF/d(delta) = m(x).
// This is exactly how the paper models bias-dependent mismatch equations
// (SS III-B, "easily translated into Verilog-A description with
// pseudo-noise sources"): any mismatch model expressible as a
// bias-dependent current can be attached without touching device code.
#pragma once

#include <functional>

#include "circuit/device.hpp"
#include "circuit/netlist.hpp"

namespace psmn {

class BehavioralMismatch : public Device {
 public:
  /// `modulation` receives the stamper (for terminal voltages via v()) and
  /// returns the current per unit delta, flowing a -> b.
  using Modulation = std::function<Real(const Stamper&)>;

  BehavioralMismatch(std::string name, NodeId a, NodeId b, Real sigma,
                     Modulation modulation, const Netlist& nl)
      : Device(std::move(name)),
        a_(nl.nodeIndex(a)),
        b_(nl.nodeIndex(b)),
        sigma_(sigma),
        modulation_(std::move(modulation)) {
    PSMN_CHECK(sigma_ > 0.0, "sigma must be positive");
    PSMN_CHECK(modulation_ != nullptr, "modulation required");
  }

  void declareStamps(StampPlan&) const override {}
  void eval(Stamper& s) const override {
    if (delta_ == 0.0) return;
    // Jacobian of delta*m(x) w.r.t. x is omitted: deltas are small
    // Monte-Carlo perturbations and Newton tolerates the approximation.
    s.stampCurrent(a_, b_, delta_ * modulation_(s));
  }

  size_t mismatchCount() const override { return 1; }
  MismatchParam mismatchParam(size_t k) const override {
    PSMN_CHECK(k == 0, "bad mismatch index");
    return {name() + ".delta", MismatchKind::kGeneric, sigma_, false};
  }
  void setMismatchDelta(size_t k, Real delta) override {
    PSMN_CHECK(k == 0, "bad mismatch index");
    delta_ = delta;
  }
  Real mismatchDelta(size_t k) const override {
    PSMN_CHECK(k == 0, "bad mismatch index");
    return delta_;
  }
  void mismatchStampF(size_t k, Stamper& s) const override {
    PSMN_CHECK(k == 0, "bad mismatch index");
    s.stampCurrent(a_, b_, modulation_(s));
  }

 private:
  int a_, b_;
  Real sigma_;
  Modulation modulation_;
  Real delta_ = 0.0;
};

}  // namespace psmn
