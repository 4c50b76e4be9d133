// Transient analysis.
//
// Integrates f(x,t) + dq/dt = 0 with backward-Euler, trapezoidal, or
// 2nd-order Gear, in the "charge-state" formulation: the integrator tracks
// (x, q, qdot) so purely algebraic equations stay exact under trapezoidal
// integration (no DAE ringing) and breakpoints restart cleanly with a BE
// step.
//
// Each step stamps G and C into the system's declared sparsity pattern,
// assembles J = G + a*C and the step residual, and runs the damped-Newton
// kernel (engine/newton.hpp) on them, reusing one symbolic factorization
// (SparseLU::refactor) across iterations and time steps. All per-step
// scratch lives in a TransientWorkspace so the steady-state stepping loop
// performs no heap allocation (tests/test_alloc.cpp pins this down).
#pragma once

#include <functional>

#include "engine/dc.hpp"

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

/// The Newton workspace plus the step's own scratch. Create one per
/// (system, run) and pass it to every integrateStep call: the pattern
/// matrices, symbolic factorization, and all vectors/matrices are reused,
/// so steps after the first do not allocate. `stats` tallies the cost of
/// every step run through it; after a failed step `lastFailure` carries the
/// kernel's post-mortem and the step's end time, and runTransient throws a
/// NaN/Inf escape (`lastFailureNonFinite`) as NumericalError, a stall as
/// ConvergenceError.
///
/// After a successful step the workspace exposes the accepted-point
/// linearization: `slu` holds the factored J = G + a*C at the accepted
/// (x, t+h) (a = 1/h for the BE steps the sensitivity engine takes), and
/// `gsp`/`csp` hold G and C there. The sensitivity update solves against
/// `slu` instead of re-evaluating and re-factoring (its LuSolveScratch
/// overloads let threads share it, one scratch per thread), and the
/// shooting monodromy sweep starts its step factors from `slu`'s symbolic
/// factorization.
struct TransientWorkspace : NewtonWorkspace {
  RealVector q1, rhsQ, x1, qd1;
  RealSparse csp;  // C on the system's pattern
  // J = G + a*C, with value-scatter maps built on the first step.
  MergedSparseAssembler<Real> jac;
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

/// Called at the initial point (h == 0) and after every accepted step of
/// size h, with the time and state there; the workspace then holds G and C
/// at that point (and, after a step, the factored step Jacobian).
using TransientStepHook =
    std::function<void(Real t, Real h, const RealVector& x)>;

/// runTransient's initial state, breakpoint segmentation and step loop on
/// the caller's workspace, calling `onPoint` (when set) at every point:
/// the loop runTransientSensitivity rides on.
TransientResult runTransient(const MnaSystem& sys, Real t0, Real t1, Real dt,
                             const TranOptions& opt, TransientWorkspace& ws,
                             const TransientStepHook& onPoint);

/// Single integration step from (x0,q0,qd0,t) to t+h; updates all three.
/// `beStep` forces backward Euler (first step, post-breakpoint). Returns
/// false if Newton failed. qm1 is q at the pre-previous point (Gear2).
/// The accepted point keeps the final Newton iterate's f/q/G/C/LU
/// consistent in `ws` — no post-convergence re-evaluation happens.
bool integrateStep(const MnaSystem& sys, IntegrationMethod method, bool beStep,
                   Real t, Real h, RealVector& x, RealVector& q,
                   RealVector& qd, const RealVector* qm1,
                   const TranOptions& opt, TransientWorkspace& ws);

}  // namespace psmn
