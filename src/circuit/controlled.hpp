// Linear controlled sources. VCVS and VCCS are generalized to a weighted
// sum of controlling node-pairs, which is what behavioral testbenches need
// (e.g. the comparator offset loop of paper Fig. 6 applies
// vin+ = vcm + vos/2, a two-term VCVS).
#pragma once

#include "circuit/device.hpp"
#include "circuit/netlist.hpp"

namespace psmn {

struct ControlTerm {
  int p;  // MNA index of + controlling node (-1 = ground)
  int n;  // MNA index of - controlling node
  Real gain;
};

/// v(a) - v(b) = offset + sum_k gain_k * (v(pk) - v(nk)). One branch unknown.
class Vcvs : public Device {
 public:
  Vcvs(std::string name, NodeId a, NodeId b, const Netlist& nl,
       std::vector<ControlTerm> terms, Real offset = 0.0)
      : Device(std::move(name)),
        a_(nl.nodeIndex(a)),
        b_(nl.nodeIndex(b)),
        terms_(std::move(terms)),
        offset_(offset) {}

  /// Single-control convenience (classic SPICE E element).
  Vcvs(std::string name, NodeId a, NodeId b, NodeId cp, NodeId cn, Real gain,
       const Netlist& nl)
      : Vcvs(std::move(name), a, b, nl,
             {{nl.nodeIndex(cp), nl.nodeIndex(cn), gain}}) {}

  void allocate(BranchAllocator& alloc) override {
    branch_ = alloc.allocate(name());
  }
  void declareStamps(StampPlan& plan) const override;
  void eval(Stamper& s) const override;
  int branchIndex() const { return branch_; }

 private:
  int a_, b_;
  int branch_ = -1;
  std::vector<ControlTerm> terms_;
  Real offset_;
};

/// Current from a to b: i = sum_k gain_k * (v(pk) - v(nk)).
class Vccs : public Device {
 public:
  Vccs(std::string name, NodeId a, NodeId b, const Netlist& nl,
       std::vector<ControlTerm> terms)
      : Device(std::move(name)),
        a_(nl.nodeIndex(a)),
        b_(nl.nodeIndex(b)),
        terms_(std::move(terms)) {}

  Vccs(std::string name, NodeId a, NodeId b, NodeId cp, NodeId cn, Real gain,
       const Netlist& nl)
      : Vccs(std::move(name), a, b, nl,
             {{nl.nodeIndex(cp), nl.nodeIndex(cn), gain}}) {}

  void declareStamps(StampPlan& plan) const override;
  void eval(Stamper& s) const override;

 private:
  int a_, b_;
  std::vector<ControlTerm> terms_;
};

}  // namespace psmn
