#include "circuit/diode.hpp"

#include <cmath>

namespace psmn {

void Diode::declareStamps(StampPlan& plan) const {
  plan.conductance(a_, c_);
  if (model_.cj0 > 0.0) plan.capacitance(a_, c_);
}

void Diode::eval(Stamper& s) const {
  const Real vt = model_.n * model_.thermalVoltage();
  const Real v = s.v(a_) - s.v(c_);
  // Exponent clamping: above vmax the exponential is linearized, which keeps
  // Newton iterates finite without changing the converged solution for any
  // realistic bias.
  const Real vmax = 40.0 * vt;
  Real id, gd;
  if (v <= vmax) {
    const Real e = std::exp(v / vt);
    id = model_.is * (e - 1.0);
    gd = model_.is * e / vt;
  } else {
    const Real e = std::exp(vmax / vt);
    gd = model_.is * e / vt;
    id = model_.is * (e - 1.0) + gd * (v - vmax);
  }
  s.stampCurrent(a_, c_, id + s.gmin() * v);
  s.stampConductance(0, gd + s.gmin());

  if (model_.cj0 > 0.0) {
    // Simple constant junction capacitance (bias dependence omitted; the
    // mismatch analysis depends on the linearization, not on cj(v) detail).
    s.stampCharge(a_, c_, model_.cj0 * v);
    s.stampCapacitance(0, model_.cj0);
  }
}

}  // namespace psmn
