// Ebers-Moll bipolar junction transistor (NPN/PNP) with Early effect,
// diffusion + depletion charge storage, optional base/collector/emitter
// series resistance, and area mismatch parameters.
//
// Model notes
// -----------
// * Injection-form Ebers-Moll: with the junction diode currents
//     I_F = IS*a*(exp(vbe/(NF*vt)) - 1),  I_R = IS*a*(exp(vbc/(NR*vt)) - 1)
//   (a = area * (1 + dis) carrying the instance area factor and the IS
//   mismatch delta), the terminal currents are
//     transport  C->E:  Ict = (I_F - I_R) * early(vbc)
//     base->emitter:    Ibe = I_F / (BF*(1+dbf))
//     base->collector:  Ibc = I_R / BR.
// * Newton robustness comes from C1 smoothing, not per-device iteration
//   memory: the junction exponentials are linearized above 40*N*vt (the
//   same limiting the Diode uses), and the Early factor 1 - vbc/VAF is
//   smoothly clamped at a small positive floor so a wild iterate cannot
//   reverse the transport current's sign.
// * Charge storage per junction: diffusion charge TF*I_F (B-E only; TR is
//   omitted) plus the standard SPICE depletion charge with grading
//   coefficient m and built-in potential vj, linearized above fc*vj so
//   c(v) stays finite and C1 through forward bias.
// * RB/RC/RE > 0 allocate internal nodes (real netlist nodes named
//   "<name>:b" etc.) during construction; the junctions then stamp at the
//   internal nodes and the parasitics as linear conductances to the
//   terminals.
// * PNP devices are evaluated in a sign-flipped frame like the Mosfet:
//   internal voltages are negated, currents/charges stamped with the sign
//   factor, and conductance/capacitance entries are invariant.
//
// Mismatch (area scaling analogous to Pelgrom's 1/sqrt(area)):
//   sigma(dIS/IS) = AIS / sqrt(area),  sigma(dBF/BF) = ABF / sqrt(area).
// dF/d(dis) scales every junction current (and the diffusion charge, so
// the parameter has a dQ/dp part); dF/d(dbf) scales only the forward base
// current.
#pragma once

#include <memory>

#include "circuit/device.hpp"
#include "circuit/netlist.hpp"

namespace psmn {

struct BjtModel {
  bool pnp = false;
  Real is = 1e-15;   // transport saturation current (A)
  Real bf = 100.0;   // forward beta
  Real br = 1.0;     // reverse beta
  Real nf = 1.0;     // forward emission coefficient
  Real nr = 1.0;     // reverse emission coefficient
  Real vaf = 0.0;    // forward Early voltage (V); 0 = infinite
  Real cje = 0.0;    // zero-bias B-E depletion capacitance (F)
  Real cjc = 0.0;    // zero-bias B-C depletion capacitance (F)
  Real vje = 0.75;   // B-E built-in potential (V)
  Real vjc = 0.75;   // B-C built-in potential (V)
  Real mje = 0.33;   // B-E grading coefficient
  Real mjc = 0.33;   // B-C grading coefficient
  Real fc = 0.5;     // depletion-cap forward-bias linearization point
  Real tf = 0.0;     // forward transit time (s): diffusion charge TF*I_F
  Real rb = 0.0;     // base series resistance (ohm)
  Real rc = 0.0;     // collector series resistance (ohm)
  Real re = 0.0;     // emitter series resistance (ohm)
  Real temperature = kRoomTempK;

  // Area-mismatch constants: relative sigma of IS and BF at area = 1.
  Real ais = 0.02;   // sigma(dIS/IS) * sqrt(area)
  Real abf = 0.01;   // sigma(dBF/BF) * sqrt(area)

  Real thermalVoltage() const {
    return kBoltzmann * temperature / kElemCharge;
  }
};

/// Operating-point information for measurements and reporting.
struct BjtOpPoint {
  Real ic = 0.0;   // current into the physical collector terminal
  Real ib = 0.0;   // current into the physical base terminal
  Real gm = 0.0;   // d|Ic|/dvbe at fixed vbc (internal frame)
  Real gpi = 0.0;  // dIb/dvbe
  Real go = 0.0;   // output conductance dIc/dvce (Early term)
  bool forwardActive = false;  // B-E on, B-C off
  bool saturated = false;      // both junctions forward biased
};

class Bjt : public Device {
 public:
  /// Terminal order follows the SPICE Q card: collector, base, emitter.
  /// `area` is the instance area factor (scales IS and the charges, and
  /// shrinks the mismatch sigmas by 1/sqrt(area)). The netlist reference
  /// is non-const because RB/RC/RE > 0 create internal nodes.
  Bjt(std::string name, NodeId c, NodeId b, NodeId e,
      std::shared_ptr<const BjtModel> model, Real area, Netlist& nl);

  void declareStamps(StampPlan& plan) const override;
  void eval(Stamper& s) const override;

  // --- mismatch: k=0 is dIS/IS (relative), k=1 is dBF/BF (relative) ---
  size_t mismatchCount() const override { return 2; }
  MismatchParam mismatchParam(size_t k) const override;
  void setMismatchDelta(size_t k, Real delta) override;
  Real mismatchDelta(size_t k) const override;
  void mismatchStampF(size_t k, Stamper& s) const override;
  void mismatchStampQ(size_t k, Stamper& s) const override;

  /// Operating point at the given stamper iterate.
  BjtOpPoint opPoint(const Stamper& s) const;

  const BjtModel& model() const { return *model_; }
  Real area() const { return area_; }
  Real sigmaIs() const;
  Real sigmaBf() const;

 private:
  struct Core {
    Real ict, ibe, ibc;        // internal-frame currents (C->E, B->E, B->C)
    Real gctBe, gctBc;         // dIct/dvbe, dIct/dvbc
    Real gpi, gmu;             // dIbe/dvbe, dIbc/dvbc
    Real qbe, qbc;             // junction charges (diffusion + depletion)
    Real cbe, cbc;             // dq/dv of each junction
    Real ifwd;                 // forward injection current (for dF/dp)
  };
  Core evalCore(Real vbe, Real vbc) const;
  /// Current-scale factor a = area * (1 + dis).
  Real isScale() const { return area_ * (1.0 + dis_); }

  int c_, b_, e_;     // external terminal MNA indices
  int ci_, bi_, ei_;  // internal junction nodes (== external when R == 0)
  std::shared_ptr<const BjtModel> model_;
  Real area_;
  Real dis_ = 0.0;
  Real dbf_ = 0.0;
};

}  // namespace psmn
