// DC operating-point solver: damped Newton with gmin-stepping and
// source-stepping homotopies as fallbacks, and — when both ladders stall —
// a pseudo-arclength continuation that walks the source-scale homotopy
// around turning points (folds) instead of trying to ramp through them.
// Plain Newton and every ladder rung run the damped-Newton kernel
// (engine/newton.hpp) on G and f; the continuation corrector factors
// through the same workspace. All of them share one NewtonWorkspace: one
// symbolic factorization of the system's declared pattern, refactored
// numerically.
#pragma once

#include "engine/newton.hpp"

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
  /// homotopy rung including retries, and the arclength trace).
  SolveStats stats;
  bool usedArclength = false;
  int arclengthSteps = 0;  // accepted continuation steps when used
};

/// Solves f(x, t) = 0. Throws ConvergenceError (with FailureDiagnostics)
/// if every strategy — plain Newton, both homotopy ladders, and the
/// arclength continuation — fails.
DcResult solveDc(const MnaSystem& sys, const DcOptions& opt = {},
                 const RealVector* initialGuess = nullptr);

/// Pseudo-arclength continuation over the source-scale homotopy, exposed
/// for tests and for callers that want continuation without the ladder
/// attempts first. Traces from (x(lambda=0), 0) until the curve crosses
/// lambda = 1 and a plain Newton polish lands there; `x` receives the
/// solution. Returns false when the trace runs out of steps, the step
/// collapses, or no crossing converges. `stepsOut` (optional) reports
/// accepted continuation steps.
bool solveDcArclength(const MnaSystem& sys, RealVector& x,
                      const DcOptions& opt, NewtonWorkspace& ws,
                      int* stepsOut = nullptr);

}  // namespace psmn
