// Device base class and the stamping interface between devices and the
// MNA assembler.
//
// Formulation: the simulator solves the DAE residual
//     F(x, t) = f(x, t) + d/dt q(x) = 0
// where x stacks node voltages (ground excluded) and branch currents.
// Devices contribute:
//   - static currents f and their Jacobian G = df/dx,
//   - charges/fluxes  q and their Jacobian C = dq/dx.
// Independent sources fold their (time-dependent) values into f with the
// appropriate sign, so no separate source vector exists.
//
// Mismatch interface: a device exposes its random mismatch parameters
// (e.g. a MOSFET's dVT and dbeta/beta under the Pelgrom model). Each
// parameter p provides
//   - sigma: the std-dev of its distribution (paper eq. 4-5),
//   - delta get/set: the Monte-Carlo engine perturbs p directly,
//   - dF/dp stamps: the pseudo-noise injection direction used by the
//     LPTV noise analysis (paper SS III): the linearized response obeys
//     C d(dx)/dt + G dx = -(dF/dp) dp.
// The charge part dq/dp is stamped separately since it enters the LPTV
// right-hand side through a time derivative along the periodic orbit.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "numeric/dense_matrix.hpp"
#include "numeric/sparse_matrix.hpp"
#include "numeric/types.hpp"
#include "util/status.hpp"

namespace psmn {

class Device;

/// Kinds of mismatch parameters; used by the design-sensitivity chain rule
/// (paper eq. 14-16) to know how sigma^2 scales with device geometry.
enum class MismatchKind {
  kVth,       // threshold voltage, sigma^2 = AVT^2/(W*L)
  kBetaRel,   // relative current factor, sigma^2 = Abeta^2/(W*L)
  kResistance,
  kCapacitance,
  kInductance,
  kGeneric,
};

struct MismatchParam {
  std::string name;     // e.g. "M2.dvt"
  MismatchKind kind = MismatchKind::kGeneric;
  Real sigma = 0.0;     // std-dev in the parameter's own units
  bool areaScaled = false;  // sigma^2 proportional to 1/(W*L) (Pelgrom)
};

/// Physical noise kinds (paper footnote 1: physical noise can be simulated
/// alongside the mismatch pseudo-noise and separated via the breakdown).
enum class NoiseKind { kWhite, kFlicker };

struct NoiseDesc {
  std::string name;  // e.g. "M2.thermal"
  NoiseKind kind = NoiseKind::kWhite;
};

/// Hands out branch-current unknowns during Netlist::finalize().
class BranchAllocator {
 public:
  explicit BranchAllocator(int firstIndex) : next_(firstIndex) {}
  /// Returns the MNA index of a new branch-current unknown.
  int allocate(const std::string& name) {
    names_.push_back(name);
    return next_++;
  }
  int next() const { return next_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  int next_;
  std::vector<std::string> names_;
};

/// Accumulation target devices stamp into. Equation/variable indices are
/// MNA indices; -1 denotes ground (contributions silently dropped).
///
/// Matrix accumulation has two backends: dense (G/C matrices) and triplet
/// (for the sparse solver); vectors are always dense.
class Stamper {
 public:
  Stamper(std::span<const Real> x, Real time, size_t n)
      : x_(x), time_(time), n_(n) {}

  // --- configuration (assembler-side) ---
  void attachDense(RealMatrix* g, RealMatrix* c) { gDense_ = g; cDense_ = c; }
  void attachTriplets(std::vector<Triplet<Real>>* g,
                      std::vector<Triplet<Real>>* c) {
    gTrip_ = g;
    cTrip_ = c;
  }
  /// Pattern-slot accumulation: stamps land in the preallocated CSC slots
  /// of `g`/`c` (no heap traffic). A stamp whose (eq, var) position is
  /// missing from the pattern sets sparseMiss() instead of being dropped,
  /// so the assembler can rebuild the pattern and re-stamp.
  void attachSparse(SparseMatrix<Real>* g, SparseMatrix<Real>* c) {
    gSparse_ = g;
    cSparse_ = c;
  }
  void attachVectors(RealVector* f, RealVector* q) { f_ = f; q_ = q; }
  void setSourceScale(Real s) { sourceScale_ = s; }
  void setGmin(Real g) { gmin_ = g; }
  /// Scales every subsequent contribution; used when accumulating weighted
  /// injection stamps (composite correlated-mismatch sources) without a
  /// temporary vector per component.
  void setStampScale(Real w) { stampScale_ = w; }
  bool sparseMiss() const { return sparseMiss_; }

  // --- device-side queries ---
  /// Voltage/current of unknown `idx` in the current iterate (0 for ground).
  Real v(int idx) const { return idx < 0 ? 0.0 : x_[idx]; }
  Real time() const { return time_; }
  /// Global scale applied by source-stepping homotopy; independent sources
  /// must multiply their values by this.
  Real sourceScale() const { return sourceScale_; }
  /// Convergence aid: conductance every nonlinear device should add from
  /// its non-ground terminals to ground.
  Real gmin() const { return gmin_; }
  bool wantMatrices() const {
    return gDense_ || cDense_ || gTrip_ || cTrip_ || gSparse_ || cSparse_;
  }
  size_t size() const { return n_; }

  // --- device-side accumulation ---
  void addF(int eq, Real val) {
    if (eq >= 0 && f_) (*f_)[eq] += stampScale_ * val;
  }
  void addQ(int eq, Real val) {
    if (eq >= 0 && q_) (*q_)[eq] += stampScale_ * val;
  }
  void addG(int eq, int var, Real val) {
    if (eq < 0 || var < 0) return;
    if (gDense_) (*gDense_)(eq, var) += stampScale_ * val;
    if (gTrip_) gTrip_->push_back({eq, var, stampScale_ * val});
    if (gSparse_) {
      if (Real* slot = gSparse_->find(eq, var)) *slot += stampScale_ * val;
      else sparseMiss_ = true;
    }
  }
  void addC(int eq, int var, Real val) {
    if (eq < 0 || var < 0) return;
    if (cDense_) (*cDense_)(eq, var) += stampScale_ * val;
    if (cTrip_) cTrip_->push_back({eq, var, stampScale_ * val});
    if (cSparse_) {
      if (Real* slot = cSparse_->find(eq, var)) *slot += stampScale_ * val;
      else sparseMiss_ = true;
    }
  }

  /// Conductance stamp between unknowns a and b (the classic 4-entry stamp).
  void stampConductance(int a, int b, Real g) {
    addG(a, a, g);
    addG(b, b, g);
    addG(a, b, -g);
    addG(b, a, -g);
  }
  void stampCapacitance(int a, int b, Real c) {
    addC(a, a, c);
    addC(b, b, c);
    addC(a, b, -c);
    addC(b, a, -c);
  }
  /// Static current `i` flowing from node a to node b through the device.
  void stampCurrent(int a, int b, Real i) {
    addF(a, i);
    addF(b, -i);
  }
  /// Charge `q` stored with + plate at node a, - plate at node b.
  void stampCharge(int a, int b, Real q) {
    addQ(a, q);
    addQ(b, -q);
  }

 private:
  std::span<const Real> x_;
  Real time_ = 0.0;
  size_t n_ = 0;
  Real sourceScale_ = 1.0;
  Real gmin_ = 0.0;
  Real stampScale_ = 1.0;
  bool sparseMiss_ = false;
  RealMatrix* gDense_ = nullptr;
  RealMatrix* cDense_ = nullptr;
  std::vector<Triplet<Real>>* gTrip_ = nullptr;
  std::vector<Triplet<Real>>* cTrip_ = nullptr;
  SparseMatrix<Real>* gSparse_ = nullptr;
  SparseMatrix<Real>* cSparse_ = nullptr;
  RealVector* f_ = nullptr;
  RealVector* q_ = nullptr;
};

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Requests branch-current unknowns (called once by Netlist::finalize).
  virtual void allocate(BranchAllocator&) {}

  /// Accumulates f, q, G, C at the iterate/time carried by the stamper.
  virtual void eval(Stamper& s) const = 0;

  // --- mismatch interface (default: no mismatch) ---
  virtual size_t mismatchCount() const { return 0; }
  virtual MismatchParam mismatchParam(size_t k) const;
  virtual void setMismatchDelta(size_t k, Real delta);
  virtual Real mismatchDelta(size_t k) const;
  void clearMismatch() {
    for (size_t k = 0; k < mismatchCount(); ++k) setMismatchDelta(k, 0.0);
  }
  /// dF/dp stamps at the stamper's iterate: static part into f-slots...
  virtual void mismatchStampF(size_t k, Stamper& s) const;
  /// ...and charge part into q-slots (zero for most parameters).
  virtual void mismatchStampQ(size_t k, Stamper& s) const;

  // --- physical noise interface (default: noiseless) ---
  virtual size_t noiseCount() const { return 0; }
  virtual NoiseDesc noiseDesc(size_t k) const;
  /// Stamps the sqrt-PSD-modulated injection direction m(x) into f-slots;
  /// the stationary unit-PSD shape comes from noiseShape().
  virtual void noiseStamp(size_t k, Stamper& s) const;
  /// Stationary PSD shape: 1 for white, fRef/f for flicker.
  virtual Real noiseShape(size_t k, Real f) const;

  /// Appends discontinuity times within (t0, t1] (pulse edges etc.).
  virtual void collectBreakpoints(Real t0, Real t1,
                                  std::vector<Real>& out) const;

 private:
  std::string name_;
};

}  // namespace psmn
