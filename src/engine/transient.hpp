// Transient analysis.
//
// Integrates f(x,t) + dq/dt = 0 with backward-Euler, trapezoidal, or
// 2nd-order Gear, in the "charge-state" formulation: the integrator tracks
// (x, q, qdot) so purely algebraic equations stay exact under trapezoidal
// integration (no DAE ringing) and breakpoints restart cleanly with a BE
// step.
//
// The Newton kernel stamps G and C into the system's declared sparsity
// pattern, assembles J = G + a*C, and reuses one symbolic factorization
// (SparseLU::refactor) across iterations and time steps. All per-step
// scratch lives in a TransientWorkspace so the steady-state stepping loop
// performs no heap allocation (tests/test_alloc.cpp pins this down).
#pragma once

#include "engine/dc.hpp"
#include "engine/mna.hpp"
#include "numeric/sparse_lu.hpp"

namespace psmn {

class ThreadPool;  // runtime/thread_pool.hpp

enum class IntegrationMethod { kBackwardEuler, kTrapezoidal, kGear2 };

struct TranOptions {
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  int maxNewton = 60;
  Real residualTol = 1e-9;
  Real updateTol = 1e-9;
  bool storeStates = true;
  /// Start from this state instead of a DC solve (SPICE "UIC").
  const RealVector* initialState = nullptr;
  /// Optional execution runtime. runTransientSensitivity partitions its
  /// injection-source columns across this pool's slots (results are
  /// bit-identical for every jobs count); runTransient ignores it — a
  /// single Newton path has no column parallelism to exploit.
  ThreadPool* pool = nullptr;
};

/// Reusable scratch + cached solver state for the stepping kernel. Create
/// one per (system, run) and pass it to every integrateStep call: the
/// pattern matrices, symbolic factorization, and all vectors/matrices are
/// reused, so steps after the first do not allocate.
///
/// After a successful step the workspace exposes the accepted-point
/// linearization: `slu` holds the factored J = G + a*C at the accepted
/// (x, t+h) (a = 1/h for the BE steps the sensitivity engine takes), and
/// `gsp`/`csp` hold G and C there. The sensitivity update solves against
/// `slu` instead of re-evaluating and re-factoring (its LuSolveScratch
/// overloads let threads share it, one scratch per thread), and the
/// shooting monodromy sweep starts its step factors from `slu`'s symbolic
/// factorization.
struct TransientWorkspace {
  // Scratch vectors.
  RealVector f, q1, r, rhsQ, x1, qd1;

  // G/C on the system's pattern and the Jacobian assembler (J = G + a*C
  // with value-scatter maps built on the first step).
  RealSparse gsp, csp;
  MergedSparseAssembler<Real> jac;
  SparseLU<Real> slu;
  bool sluSymbolic = false;  // slu carries a reusable symbolic factorization

  // Cost counters, cumulative over the workspace lifetime (the old
  // fullFactorizations/refactorizations fields live on as
  // stats.factorizations/stats.refactorizations).
  SolveStats stats;

  /// Post-mortem of the most recent integrateStep that returned false
  /// (iteration, residual, suspect unknowns). runTransient folds it into
  /// the error it throws; `lastFailureNonFinite` distinguishes a NaN/Inf
  /// escape (surfaced as NumericalError) from plain Newton stagnation
  /// (ConvergenceError).
  FailureDiagnostics lastFailure;
  bool haveFailure = false;
  bool lastFailureNonFinite = false;
};

struct TransientResult {
  std::vector<Real> times;
  std::vector<RealVector> states;  // one state per accepted time point
  RealVector finalState;
  /// Run cost: stats.steps counts steps, stats.newtonIterations every
  /// Newton iteration. The initial DC solve is not included.
  SolveStats stats;

  /// Extracts the waveform of one MNA unknown.
  RealVector waveform(int mnaIndex) const;
};

/// Integrates [t0, t1] on a uniform grid of step at most dt within each
/// segment between the sources' breakpoints; every segment starts with a
/// backward-Euler step.
TransientResult runTransient(const MnaSystem& sys, Real t0, Real t1, Real dt,
                             const TranOptions& opt = {});

/// Single integration step from (x0,q0,qd0,t) to t+h; updates all three.
/// `beStep` forces backward Euler (first step, post-breakpoint). Returns
/// false if Newton failed. qm1 is q at the pre-previous point (Gear2).
/// The accepted point keeps the final Newton iterate's f/q/G/C/LU
/// consistent in `ws` — no post-convergence re-evaluation happens.
bool integrateStep(const MnaSystem& sys, IntegrationMethod method, bool beStep,
                   Real t, Real h, RealVector& x, RealVector& q,
                   RealVector& qd, const RealVector* qm1,
                   const TranOptions& opt, TransientWorkspace& ws);

/// Convenience overload with a throwaway workspace (one-off steps; the
/// engines hold a workspace across steps instead).
bool integrateStep(const MnaSystem& sys, IntegrationMethod method, bool beStep,
                   Real t, Real h, RealVector& x, RealVector& q,
                   RealVector& qd, const RealVector* qm1,
                   const TranOptions& opt);

}  // namespace psmn
