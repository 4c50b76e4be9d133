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
// Matrix stamps are slot-bound: each device declares, once, the G and C
// positions its eval may touch (declareStamps into a StampPlan), and eval
// stamps by the device-local index of a declaration. MnaSystem freezes the
// sparsity pattern from those declarations and maps every slot to a value
// index of the dense or the sparse storage, so both backends run the same
// stamping arithmetic in the same order.
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
// Both write only rows the device declared a G or C position in: the LPTV
// streams evaluate and read an injection on those rows alone
// (InjectionRows in engine/mna.hpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "numeric/dense_matrix.hpp"
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

/// The G and C positions a device's eval may stamp, declared once, in a
/// fixed order, when MnaSystem is built (Device::declareStamps). The k-th
/// declared G position is device-local G slot k, likewise for C; eval
/// stamps through those indices (Stamper::addG/addC). Positions may
/// repeat, and ground positions (-1) are kept so the indices stay fixed:
/// their stamps are dropped.
class StampPlan {
 public:
  struct Position {
    int eq, var;
  };

  void g(int eq, int var) { g_.push_back({eq, var}); }
  void c(int eq, int var) { c_.push_back({eq, var}); }
  /// The four positions Stamper::stampConductance (stampCapacitance)
  /// fills, in its order: (a,a), (b,b), (a,b), (b,a).
  void conductance(int a, int b) {
    g_.insert(g_.end(), {{a, a}, {b, b}, {a, b}, {b, a}});
  }
  void capacitance(int a, int b) {
    c_.insert(c_.end(), {{a, a}, {b, b}, {a, b}, {b, a}});
  }
  /// The four G positions of a branch-current element between a and b
  /// (Stamper::stampBranch): (a,br), (b,br), (br,a), (br,b).
  void branch(int a, int b, int br) {
    g_.insert(g_.end(), {{a, br}, {b, br}, {br, a}, {br, b}});
  }

  const std::vector<Position>& gPositions() const { return g_; }
  const std::vector<Position>& cPositions() const { return c_; }

 private:
  std::vector<Position> g_, c_;
};

/// Accumulation target devices stamp into. Vector equation indices are MNA
/// indices; -1 denotes ground (contributions silently dropped). Matrix
/// stamps address the device's declared slots (StampPlan): the assembler
/// binds, per device, the table mapping each slot to a value index of the
/// attached storage (dense row-major offset or CSC value index, -1 for a
/// ground position), so every backend stamps through the same
/// `values[slot[k]] += v`.
class Stamper {
 public:
  Stamper(std::span<const Real> x, Real time, size_t n)
      : x_(x), time_(time), n_(n) {}

  // --- configuration (assembler-side) ---
  /// Value arrays G and C stamps accumulate into (null: not wanted).
  void attachMatrices(Real* g, Real* c) { g_ = g; c_ = c; }
  /// The current device's slot tables: device-local slot k stamps into
  /// value index gSlots[k] / cSlots[k].
  void bindSlots(const int* gSlots, const int* cSlots) {
    gSlots_ = gSlots;
    cSlots_ = cSlots;
  }
  void attachVectors(RealVector* f, RealVector* q) { f_ = f; q_ = q; }
  void setSourceScale(Real s) { sourceScale_ = s; }
  /// Scales every subsequent vector contribution; used when accumulating
  /// weighted injection stamps (composite correlated-mismatch sources)
  /// without a temporary vector per component.
  void setStampScale(Real w) { stampScale_ = w; }

  // --- device-side queries ---
  /// Voltage/current of unknown `idx` in the current iterate (0 for ground).
  Real v(int idx) const { return idx < 0 ? 0.0 : x_[idx]; }
  Real time() const { return time_; }
  /// Global scale applied by source-stepping homotopy; independent sources
  /// must multiply their values by this.
  Real sourceScale() const { return sourceScale_; }
  /// Convergence aid: the junction conductance every nonlinear device adds
  /// across its junctions.
  static constexpr Real gmin() { return 1e-12; }
  size_t size() const { return n_; }

  // --- device-side accumulation ---
  void addF(int eq, Real val) {
    if (eq >= 0 && f_) (*f_)[eq] += stampScale_ * val;
  }
  void addQ(int eq, Real val) {
    if (eq >= 0 && q_) (*q_)[eq] += stampScale_ * val;
  }
  /// Adds `val` at the device's declared G (C) slot.
  void addG(int slot, Real val) {
    if (g_ == nullptr) return;
    const int at = gSlots_[slot];
    if (at >= 0) g_[at] += val;
  }
  void addC(int slot, Real val) {
    if (c_ == nullptr) return;
    const int at = cSlots_[slot];
    if (at >= 0) c_[at] += val;
  }

  /// The classic 4-entry stamp over the four slots from `slot` on that
  /// StampPlan::conductance (capacitance) declared: +x, +x, -x, -x.
  void stampConductance(int slot, Real g) {
    addG(slot, g);
    addG(slot + 1, g);
    addG(slot + 2, -g);
    addG(slot + 3, -g);
  }
  void stampCapacitance(int slot, Real c) {
    addC(slot, c);
    addC(slot + 1, c);
    addC(slot + 2, -c);
    addC(slot + 3, -c);
  }
  /// The branch incidence over the four slots from `slot` on that
  /// StampPlan::branch declared: the branch current enters KCL at a (+1)
  /// and b (-1), and the branch equation reads v(a) - v(b).
  void stampBranch(int slot) {
    addG(slot, 1.0);
    addG(slot + 1, -1.0);
    addG(slot + 2, 1.0);
    addG(slot + 3, -1.0);
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
  Real stampScale_ = 1.0;
  Real* g_ = nullptr;
  Real* c_ = nullptr;
  const int* gSlots_ = nullptr;
  const int* cSlots_ = nullptr;
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

  /// Lists, in a fixed order, every G and C position eval may stamp
  /// (called once per MnaSystem; the netlist is final by then). A device
  /// whose stamp positions depend on the iterate declares all of them.
  virtual void declareStamps(StampPlan& plan) const = 0;
  /// Accumulates f, q, G, C at the iterate/time carried by the stamper,
  /// stamping matrices by the slots declareStamps declared.
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

  /// Appends discontinuity times within (t0, t1] (pulse edges etc.).
  virtual void collectBreakpoints(Real t0, Real t1,
                                  std::vector<Real>& out) const;

 private:
  std::string name_;
};

}  // namespace psmn
