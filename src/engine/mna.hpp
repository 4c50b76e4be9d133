// MNA system assembly: evaluates the netlist's residual
//     F(x,t) = f(x,t) + d/dt q(x)
// pieces (f, q) and Jacobians (G = df/dx, C = dq/dx) into dense or sparse
// storage, and provides the mismatch/noise injection vectors used by the
// sensitivity, noise, and LPTV analyses.
#pragma once

#include <algorithm>
#include <cmath>

#include "circuit/netlist.hpp"
#include "numeric/dense_matrix.hpp"

namespace psmn {

/// One mismatch or physical-noise injection source, flattened out of the
/// netlist. `sigma` is meaningful for mismatch sources (pseudo-noise PSD at
/// 1 Hz is sigma^2); physical sources carry their magnitude inside the
/// stamp and have sigma == 1.
///
/// A source normally wraps a single device parameter (one component of
/// weight 1). Correlated mismatch (paper SS III-C) is modeled by *composite*
/// sources: each underlying unit-variance independent variable xi_j becomes
/// one InjectionSource whose components carry the column weights a_ij of
/// the factor A with covariance = A A^T (paper eq. 6).
struct InjectionSource {
  enum class Kind { kMismatch, kPhysicalWhite, kPhysicalFlicker };

  struct Component {
    Device* device = nullptr;
    size_t index = 0;   // device-local mismatch/noise index
    Real weight = 1.0;  // parameter units per unit of this source
  };

  Kind kind = Kind::kMismatch;
  std::string name;
  std::vector<Component> components;
  Real sigma = 1.0;     // source std-dev (1 for composite & physical)
  MismatchKind mkind = MismatchKind::kGeneric;

  /// Convenience accessors for the common single-component case.
  Device* device() const {
    return components.size() == 1 ? components[0].device : nullptr;
  }
  size_t index() const {
    return components.size() == 1 ? components[0].index : 0;
  }

  /// Stationary PSD factor at frequency f: pseudo-noise is flicker-shaped
  /// with PSD sigma^2 at 1 Hz (paper SS III); physical white is flat.
  Real psd(Real f) const {
    switch (kind) {
      case Kind::kMismatch:
      case Kind::kPhysicalFlicker:
        return sigma * sigma / std::max(f, 1e-30);
      case Kind::kPhysicalWhite:
        return sigma * sigma;
    }
    return 0.0;
  }
};

/// Linear-solver backend selection shared by the DC and transient engines.
/// kAuto picks sparse once the system is large enough that the O(n^3)
/// dense factorization loses to the pattern-reusing sparse LU.
enum class LinearSolverKind { kAuto, kDense, kSparse };

/// Default kAuto crossover (MNA unknowns). Below this the dense path's
/// cache friendliness wins; above it the sparse path's O(nnz) assembly and
/// near-linear refactorization take over (see bench_kernels).
inline constexpr size_t kSparseSolverThreshold = 40;

inline bool useSparseSolver(LinearSolverKind kind, size_t n,
                            size_t threshold = kSparseSolverThreshold) {
  switch (kind) {
    case LinearSolverKind::kDense: return false;
    case LinearSolverKind::kSparse: return true;
    case LinearSolverKind::kAuto: return n >= threshold;
  }
  return false;
}

/// Options for one MNA evaluation pass.
struct MnaEvalOptions {
  Real sourceScale = 1.0;
  /// Shunt conductance from every node (not branch) unknown to ground;
  /// used by gmin-stepping homotopy and as a convergence aid.
  Real gshunt = 0.0;
  /// Junction gmin handed to devices.
  Real gmin = 1e-12;
};

class MnaSystem {
 public:
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

  /// Sparse evaluation into caller-owned pattern matrices. On the first
  /// call (`g`/`c` empty) a symbolic pass runs the devices in triplet mode
  /// and freezes the union sparsity pattern — including every node-diagonal
  /// slot, so gshunt homotopy stamps in place. Subsequent calls zero the
  /// stored values and stamp straight into the CSC slots: no heap
  /// allocation. A stamp landing outside the cached pattern (e.g. a MOSFET
  /// drain/source swap reaching a new position) triggers an automatic
  /// pattern extension and re-stamp, so results are always exact; callers
  /// caching factorizations should watch nonZeros() for pattern growth.
  void evalSparse(std::span<const Real> x, Real t, RealVector* f,
                  RealVector* q, RealSparse* g, RealSparse* c,
                  const EvalOptions& opt = {}) const;

  /// dF/dp injection vectors for source `src` at iterate x: the static part
  /// into `bf` and the charge part into `bq` (either may be null).
  void evalInjection(const InjectionSource& src, std::span<const Real> x,
                     Real t, RealVector* bf, RealVector* bq) const;

  /// All mismatch pseudo-noise sources (paper's DC-mismatch -> AC noise
  /// mapping), optionally plus physical device noise.
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
  Netlist* netlist_;
  size_t n_ = 0;
  size_t nodeUnknowns_ = 0;
};

}  // namespace psmn
