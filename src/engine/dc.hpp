// DC operating-point solver: damped Newton with gmin-stepping and
// source-stepping homotopies as fallbacks, and — when both ladders stall —
// a pseudo-arclength continuation that walks the source-scale homotopy
// around turning points (folds) instead of trying to ramp through them.
// Every Newton iteration, ladder rung and continuation corrector factors
// the sparse G with SparseLU: one symbolic factorization of the system's
// declared pattern, refactored numerically.
#pragma once

#include "engine/mna.hpp"
#include "numeric/sparse_lu.hpp"
#include "util/telemetry.hpp"

namespace psmn {

struct DcOptions {
  Real residualTol = 1e-9;   // max |f| (A)
  Real updateTol = 1e-9;     // max |dx| (V / A)
  Real time = 0.0;           // sources evaluated at this time
  int gminSteps = 12;        // homotopy ladder length (0 disables)
};

struct DcResult {
  RealVector x;
  /// Cumulative cost over every strategy attempted (plain Newton, every
  /// homotopy rung including retries, and the arclength trace). The old
  /// `iterations` field reported only the last newtonSolve's count;
  /// `stats.newtonIterations` is the true total.
  SolveStats stats;
  bool usedArclength = false;
  int arclengthSteps = 0;  // accepted continuation steps when used
};

/// Reusable Newton scratch: the system's pattern matrix, symbolic
/// factorization, and solve buffers shared across homotopy rungs (gmin /
/// source stepping re-solve the same structure up to ~23 times).
struct DcWorkspace {
  RealVector f;
  RealSparse gsp;
  SparseLU<Real> slu;
  bool sluSymbolic = false;
  /// Post-mortem of the most recent newtonSolve that returned false
  /// (iteration, residual, suspect unknowns). solveDc folds it into the
  /// ConvergenceError it throws; ladder rungs overwrite it freely.
  FailureDiagnostics lastFailure;
  bool haveFailure = false;
  /// Cumulative cost of every solve run through this workspace.
  SolveStats stats;
};

/// Solves f(x, t) = 0. Throws ConvergenceError (with FailureDiagnostics)
/// if every strategy — plain Newton, both homotopy ladders, and the
/// arclength continuation — fails.
DcResult solveDc(const MnaSystem& sys, const DcOptions& opt = {},
                 const RealVector* initialGuess = nullptr);

/// Raw damped-Newton kernel used by solveDc and the transient engine.
/// Returns false instead of throwing when Newton stalls (the failure
/// post-mortem lands in ws->lastFailure). `ws` carries the cached solver
/// state between calls; pass null for a one-off solve.
bool newtonSolve(const MnaSystem& sys, RealVector& x, const DcOptions& opt,
                 Real sourceScale, Real gshunt, int* iterationsOut = nullptr,
                 DcWorkspace* ws = nullptr);

/// Pseudo-arclength continuation over the source-scale homotopy, exposed
/// for tests and for callers that want continuation without the ladder
/// attempts first. Traces from (x(lambda=0), 0) until the curve crosses
/// lambda = 1 and a plain Newton polish lands there; `x` receives the
/// solution. Returns false when the trace runs out of steps, the step
/// collapses, or no crossing converges. `stepsOut` (optional) reports
/// accepted continuation steps.
bool solveDcArclength(const MnaSystem& sys, RealVector& x,
                      const DcOptions& opt, DcWorkspace& ws,
                      int* iterationsOut = nullptr, int* stepsOut = nullptr);

}  // namespace psmn
