// Transient analysis.
//
// Integrates f(x,t) + dq/dt = 0 with backward-Euler, trapezoidal, or
// 2nd-order Gear, in the "charge-state" formulation: the integrator tracks
// (x, q, qdot) so purely algebraic equations stay exact under trapezoidal
// integration (no DAE ringing) and breakpoints restart cleanly with a BE
// step.
//
// The Newton kernel runs on the sparse linear-solver backend by default
// (TranOptions::solver): it stamps into the system's declared sparsity
// pattern and reuses the symbolic factorization (SparseLU::refactor) across
// iterations and time steps. The dense path (kDense) factors G + a*C with
// DenseLU each iteration. All per-step scratch lives in a
// TransientWorkspace so the steady-state stepping loop performs no heap
// allocation (tests/test_alloc.cpp pins this down).
#pragma once

#include "engine/dc.hpp"
#include "engine/mna.hpp"
#include "numeric/dense_lu.hpp"
#include "numeric/sparse_lu.hpp"

namespace psmn {

class ThreadPool;  // runtime/thread_pool.hpp

enum class IntegrationMethod { kBackwardEuler, kTrapezoidal, kGear2 };

struct TranOptions {
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  int maxNewton = 60;
  Real residualTol = 1e-9;
  Real updateTol = 1e-9;
  Real maxStep = 0.5;  // Newton dx clamp (V); vital for regenerative latches
  Real gshunt = 0.0;
  bool useBreakpoints = true;
  bool storeStates = true;
  /// Linear-solver backend of the Newton kernel.
  LinearSolverKind solver = LinearSolverKind::kSparse;
  /// Fill-reducing column pre-ordering used by the sparse backend's
  /// symbolic analysis (numeric refactorizations inherit it).
  OrderingKind ordering = OrderingKind::kAmd;
  /// Adaptive timestep control (fixed grid when false). The nominal dt is
  /// the starting step; it shrinks/grows within [dtMin, dtMax].
  bool adaptive = false;
  Real reltol = 1e-3;
  Real abstol = 1e-6;
  Real dtMin = 0.0;   // 0 -> dt/1e6
  Real dtMax = 0.0;   // 0 -> 4*dt
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
/// linearization: `dlu`/`slu` hold the factored J = G + a*C at the
/// accepted (x, t+h) (a = 1/h for the BE steps the sensitivity engine
/// takes), and `c`/`csp` hold C there. The sensitivity engine solves
/// against it via solveAcceptedInPlace() instead of re-evaluating and
/// re-factoring.
struct TransientWorkspace {
  // Backend and ordering, fixed on first use.
  bool sparse = false;
  bool chosen = false;
  OrderingKind ordering = OrderingKind::kAmd;

  // Scratch vectors.
  RealVector f, q1, r, rhsQ, x1, qd1;

  // Dense backend: j accumulates G then J = G + a*C in place; c holds C.
  RealMatrix j, c;
  DenseLU<Real> dlu;

  // Sparse backend: G/C on the system's pattern and the Jacobian assembler
  // (J = G + a*C with value-scatter maps built on the first step).
  RealSparse gsp, csp;
  MergedSparseAssembler<Real> jac;
  SparseLU<Real> slu;
  bool sluSymbolic = false;  // slu carries a reusable symbolic factorization

  // Integration coefficient `a` of the most recent step (J = G + a*C; 1/h
  // for BE). Lets consumers of the accepted-step linearization recover
  // G = J - a*C from the dense workspace without a re-evaluation (the
  // sparse workspace keeps G and C separately). Set by integrateStep.
  Real acceptedA = 0.0;

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

  void chooseBackend(const TranOptions& opt) {
    if (chosen) return;
    sparse = opt.solver == LinearSolverKind::kSparse;
    ordering = opt.ordering;
    chosen = true;
  }

  /// Solves J y = b in place against the accepted-step factorization.
  void solveAcceptedInPlace(std::span<Real> b, size_t nrhs = 1) const {
    if (sparse) slu.solveManyInPlace(b, nrhs);
    else dlu.solveManyInPlace(b, nrhs);
  }
  /// Concurrently callable variant: threads sharing the accepted-step
  /// factorization solve disjoint column blocks, one scratch per thread.
  void solveAcceptedInPlace(std::span<Real> b, size_t nrhs,
                            LuSolveScratch<Real>& scratch) const {
    if (sparse) slu.solveManyInPlace(b, nrhs, scratch);
    else dlu.solveManyInPlace(b, nrhs, scratch);
  }
};

struct TransientResult {
  std::vector<Real> times;
  std::vector<RealVector> states;  // one state per accepted time point
  RealVector finalState;
  /// Run cost: stats.steps counts accepted steps, stats.newtonIterations
  /// every Newton iteration including rejected adaptive attempts. The
  /// initial DC solve is not included (matching the old counters).
  SolveStats stats;

  /// Extracts the waveform of one MNA unknown.
  RealVector waveform(int mnaIndex) const;
};

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
