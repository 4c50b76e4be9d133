// MNA system assembly: evaluates the netlist's residual
//     F(x,t) = f(x,t) + d/dt q(x)
// pieces (f, q) and Jacobians (G = df/dx, C = dq/dx) into dense or sparse
// storage, and provides the mismatch injection vectors used by the
// sensitivity and LPTV analyses. The sparsity pattern is declared
// by the devices and frozen at construction; both storages are stamped by
// slot through one loop (see device.hpp). The Newton kernels (DC,
// transient, PSS) factor the sparse form; the dense form serves f/q-only
// callers, DC sensitivity and test references.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>

#include "circuit/netlist.hpp"
#include "numeric/dense_matrix.hpp"
#include "numeric/sparse_matrix.hpp"

namespace psmn {

/// One mismatch injection source, flattened out of the netlist: its
/// pseudo-noise PSD at 1 Hz is sigma^2.
///
/// A source normally wraps a single device parameter (one component of
/// weight 1). Correlated mismatch (paper SS III-C) is modeled by *composite*
/// sources: each underlying unit-variance independent variable xi_j becomes
/// one InjectionSource whose components carry the column weights a_ij of
/// the factor A with covariance = A A^T (paper eq. 6).
struct InjectionSource {
  struct Component {
    Device* device = nullptr;
    size_t index = 0;   // device-local mismatch index
    Real weight = 1.0;  // parameter units per unit of this source
  };

  std::string name;
  std::vector<Component> components;
  Real sigma = 1.0;     // source std-dev (1 for composite sources)

  /// Convenience accessors for the common single-component case.
  Device* device() const {
    return components.size() == 1 ? components[0].device : nullptr;
  }
  size_t index() const {
    return components.size() == 1 ? components[0].index : 0;
  }

  /// Stationary PSD at frequency f: pseudo-noise is flicker-shaped with
  /// PSD sigma^2 at 1 Hz (paper SS III).
  Real psd(Real f) const { return sigma * sigma / std::max(f, 1e-30); }
};

/// Every source's injection rows, in one flat table: source s's are
/// flat[begin[s] .. begin[s + 1]), the sorted, distinct equations of its
/// devices' declared G and C positions, ground excluded. A source's
/// injection (MnaSystem::evalInjection) is exactly zero outside them.
struct InjectionRows {
  std::vector<size_t> begin;
  std::vector<int> flat;

  explicit InjectionRows(std::span<const InjectionSource> sources);
  std::span<const int> of(size_t s) const {
    return {flat.data() + begin[s], begin[s + 1] - begin[s]};
  }
};

/// Options for one MNA evaluation pass.
struct MnaEvalOptions {
  Real sourceScale = 1.0;
  /// Shunt conductance from every node (not branch) unknown to ground;
  /// used by gmin-stepping homotopy and as a convergence aid.
  Real gshunt = 0.0;
};

class MnaSystem {
 public:
  /// Finalizes the netlist, collects every device's declared stamp
  /// positions (Device::declareStamps) and freezes the canonical G and C
  /// sparsity patterns from them -- G also holds every node diagonal, so
  /// gshunt stamps in place -- together with two immutable slot tables:
  /// each declared position's CSC value index and its dense row-major
  /// offset (-1 for a ground position in both).
  explicit MnaSystem(Netlist& netlist);

  Netlist& netlist() { return *netlist_; }
  const Netlist& netlist() const { return *netlist_; }
  size_t size() const { return n_; }

  using EvalOptions = MnaEvalOptions;

  /// Dense evaluation. Any output pointer may be null. Matrices/vectors are
  /// resized and zeroed here.
  void evalDense(std::span<const Real> x, Real t, RealVector* f, RealVector* q,
                 RealMatrix* g, RealMatrix* c,
                 const EvalOptions& opt = {}) const;

  /// Sparse evaluation into caller-owned pattern matrices. An empty `g`/`c`
  /// receives a copy of the system's frozen pattern; later calls zero the
  /// stored values and stamp straight into the CSC slots, with no heap
  /// allocation. The pattern never changes, so factorizations of matrices
  /// assembled from it can be refactored for the life of the system. Both
  /// evaluations run the same stamping loop over their slot tables: every
  /// G, C, f and q entry receives the same terms in the same order, so the
  /// two backends agree bit for bit.
  void evalSparse(std::span<const Real> x, Real t, RealVector* f,
                  RealVector* q, RealSparse* g, RealSparse* c,
                  const EvalOptions& opt = {}) const;

  /// dF/dp injection vectors for source `src` at iterate x: the static part
  /// into `bf` and the charge part into `bq` (either may be null). With no
  /// `rows` both are resized to n and zeroed. With `rows` (src's entry of
  /// InjectionRows) only those entries are zeroed and stamped, once a
  /// first call has sized the vectors: the entries outside them keep
  /// whatever they held, so a caller reads `rows` only.
  void evalInjection(const InjectionSource& src, std::span<const Real> x,
                     Real t, RealVector* bf, RealVector* bq,
                     std::optional<std::span<const int>> rows = {}) const;

  /// All mismatch pseudo-noise sources (paper's DC-mismatch -> AC noise
  /// mapping). Mismatch is the only source kind: the only accepted
  /// arguments are (true, false), and anything else throws Error. The two
  /// parameters stay until the benchmark harness (perfbench/circuits.hpp)
  /// stops spelling that pair out.
  std::vector<InjectionSource> collectSources(bool includeMismatch = true,
                                              bool includePhysical = false) const;

  /// Breakpoints from all devices in (t0, t1], sorted and deduplicated.
  std::vector<Real> collectBreakpoints(Real t0, Real t1) const;

  /// Number of node-voltage unknowns (gshunt applies to these only).
  size_t nodeUnknowns() const { return nodeUnknowns_; }

  /// Names of the `count` unknowns with the worst residual entries of `f`
  /// (non-finite entries first, then by magnitude) — the suspect list the
  /// solvers attach to FailureDiagnostics when Newton dies.
  std::vector<std::string> suspectUnknowns(std::span<const Real> f,
                                           size_t count = 3) const;

 private:
  /// One backend's slot tables: for every declared G / C position (all
  /// devices, in netlist order) the value index it stamps into, and the G
  /// value index of each node diagonal (gshunt).
  struct SlotTables {
    std::vector<int> g, c, diag;
  };

  /// The stamping loop both evaluations share: devices stamp f/q by MNA
  /// index and G/C through `slots` into the value arrays `g`/`c`.
  void stamp(std::span<const Real> x, Real t, RealVector* f, RealVector* q,
             Real* g, Real* c, const SlotTables& slots,
             const EvalOptions& opt) const;

  Netlist* netlist_;
  size_t n_ = 0;
  size_t nodeUnknowns_ = 0;
  std::vector<size_t> gBegin_, cBegin_;  // each device's first slot
  RealSparse gPattern_, cPattern_;       // frozen patterns, values zero
  SlotTables sparseSlots_, denseSlots_;
};

}  // namespace psmn
