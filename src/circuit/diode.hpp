// Junction diode with exponential I-V, series-free, optional junction cap.
#pragma once

#include "circuit/device.hpp"
#include "circuit/netlist.hpp"

namespace psmn {

struct DiodeModel {
  Real is = 1e-14;   // saturation current (A)
  Real n = 1.0;      // emission coefficient
  Real cj0 = 0.0;    // zero-bias junction capacitance (F)
  Real temperature = kRoomTempK;

  Real thermalVoltage() const {
    return kBoltzmann * temperature / kElemCharge;
  }
};

class Diode : public Device {
 public:
  Diode(std::string name, NodeId anode, NodeId cathode, DiodeModel model,
        const Netlist& nl)
      : Device(std::move(name)),
        a_(nl.nodeIndex(anode)),
        c_(nl.nodeIndex(cathode)),
        model_(model) {}

  void declareStamps(StampPlan& plan) const override;
  void eval(Stamper& s) const override;

  const DiodeModel& model() const { return model_; }

 private:
  int a_, c_;
  DiodeModel model_;
};

}  // namespace psmn
