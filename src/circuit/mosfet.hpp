// MOSFET: smoothed square-law (level-1 style) model with channel-length
// modulation, body effect, constant gate/junction capacitances, Pelgrom
// mismatch parameters (paper eq. 4-5).
//
// Model notes
// -----------
// * The gate-overdrive kink at vgst=0 is smoothed with
//     veff = (vgst + sqrt(vgst^2 + 4*vsmooth^2)) / 2,
//   giving a C1-continuous I-V everywhere (a weak sub-threshold-like tail
//   instead of a hard cutoff), which keeps Newton iterations well behaved.
// * Triode/saturation are the classic square-law branches, which join with
//   continuous value and first derivative at vds = veff.
// * Drain/source are handled symmetrically (internal swap when vds < 0);
//   PMOS devices are evaluated in a sign-flipped frame.
// * Capacitances are bias-independent: cgs = cgd = cox*W*L/2 + overlap,
//   cdb = csb = cj*W*ldiff. The mismatch analysis depends on the
//   linearization around the PSS, not on cap bias-dependence detail.
//
// Pelgrom mismatch (paper eq. 4-5):
//   sigma_VT    = AVT   / sqrt(W*L)
//   sigma_beta  = Abeta / sqrt(W*L)   (relative dbeta/beta)
#pragma once

#include <memory>

#include "circuit/device.hpp"
#include "circuit/netlist.hpp"

namespace psmn {

struct MosModel {
  bool pmos = false;
  Real kp = 200e-6;        // transconductance factor u*Cox (A/V^2)
  Real vt0 = 0.4;          // zero-bias threshold (V, positive for both types)
  Real lambda = 0.15;      // channel-length modulation (1/V)
  Real gamma = 0.0;        // body-effect coefficient (sqrt(V))
  Real phi = 0.7;          // surface potential 2*phiF (V)
  Real cox = 8e-3;         // gate capacitance density (F/m^2)
  Real cj = 1e-3;          // junction capacitance density (F/m^2)
  Real ldiff = 0.3e-6;     // source/drain diffusion length (m)
  Real cgso = 2e-10;       // gate-source overlap cap (F/m)
  Real cgdo = 2e-10;       // gate-drain overlap cap (F/m)
  Real vsmooth = 20e-3;    // vgst smoothing (V)

  // Pelgrom matching constants. Paper values: AVT = 6.5 mV*um,
  // Abeta = 3.25 %*um for the assumed 0.13um process.
  Real avt = 6.5e-9;       // V*m
  Real abeta = 3.25e-8;    // (relative)*m  (0.0325 * 1e-6)
};

/// Operating-point information exported for measurements, pseudo-noise
/// modulation, and design-sensitivity reporting.
struct MosOpPoint {
  Real ids = 0.0;  // current into physical drain terminal
  Real gm = 0.0;   // all derivatives in the internal (hat) frame, >= 0
  Real gds = 0.0;
  Real gmb = 0.0;
  Real veff = 0.0;
  bool saturated = false;
  bool swapped = false;  // internal drain/source swapped vs. physical
};

class Mosfet : public Device {
 public:
  Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
         std::shared_ptr<const MosModel> model, Real w, Real l,
         const Netlist& nl);

  void declareStamps(StampPlan& plan) const override;
  void eval(Stamper& s) const override;

  // --- mismatch: k=0 is dVT (V), k=1 is dbeta/beta (relative) ---
  size_t mismatchCount() const override { return 2; }
  MismatchParam mismatchParam(size_t k) const override;
  void setMismatchDelta(size_t k, Real delta) override;
  Real mismatchDelta(size_t k) const override;
  void mismatchStampF(size_t k, Stamper& s) const override;

  /// Operating point at the given stamper iterate.
  MosOpPoint opPoint(const Stamper& s) const;

  const MosModel& model() const { return *model_; }
  Real width() const { return w_; }
  Real length() const { return l_; }
  /// Changes W (used by the design-sensitivity verification benches).
  void setWidth(Real w);

  Real sigmaVt() const;
  Real sigmaBetaRel() const;

 private:
  struct Core {
    Real ids, gm, gds, gmb;  // internal-frame values
    Real didvt;              // dIds/d(dvt)
    Real veff;
    bool saturated;
  };
  Core evalCore(Real vgs, Real vds, Real vbs) const;
  /// The body effect at vbs: vth's shift and dvth/dvbs.
  struct Body {
    Real vth, dvthDvbs;
  };
  Body bodyEffect(Real vbs) const;
  /// Resolves hat-frame terminal assignment; returns (nD,nG,nS,nB) MNA
  /// indices with internal drain/source ordering and the sign factor.
  struct Frame {
    int nd, ng, ns, nb;
    Real sgn;
    bool swapped;
  };
  Frame frame(const Stamper& s) const;

  int d_, g_, s_, b_;
  std::shared_ptr<const MosModel> model_;
  Real w_, l_;
  Real dvt_ = 0.0;
  Real dbeta_ = 0.0;
  // Precomputed capacitances.
  Real cgs_ = 0.0, cgd_ = 0.0, cdb_ = 0.0, csb_ = 0.0;
  // evalCore's per-device constants, set with the capacitances: kp W/L,
  // sqrt(phi), 4 vsmooth^2, and the body effect at vbs = 0 (every device
  // whose source is tied to its bulk).
  Real kpWl_ = 0.0, sqrtPhi_ = 0.0, vsmooth4_ = 0.0;
  Body body0_{};
};

}  // namespace psmn
