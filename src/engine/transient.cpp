#include "engine/transient.hpp"

#include <cmath>
#include <limits>

#include "util/fault_injection.hpp"
#include "util/telemetry.hpp"
#include "util/units.hpp"

namespace psmn {
namespace {

// Max-norm that propagates non-finites: std::max drops NaN (the comparison
// is false), so a poisoned residual would otherwise read as norm 0 and be
// accepted as converged.
Real maxAbsVec(std::span<const Real> v) {
  Real m = 0.0;
  for (Real x : v) {
    if (!std::isfinite(x)) return std::numeric_limits<Real>::quiet_NaN();
    m = std::max(m, std::fabs(x));
  }
  return m;
}

/// Cold-path failure recorder for integrateStep.
void recordStepFailure(TransientWorkspace& ws, const MnaSystem& sys,
                       const char* stage, int iteration, Real residual,
                       Real t, bool nonFinite) {
  ws.lastFailure = {};
  ws.lastFailure.analysis = "transient";
  ws.lastFailure.stage = stage;
  ws.lastFailure.iteration = iteration;
  if (std::isfinite(residual)) ws.lastFailure.residual = residual;
  ws.lastFailure.time = t;
  ws.lastFailure.hasTime = true;
  ws.lastFailure.suspectNodes = sys.suspectUnknowns(ws.r);
  ws.lastFailure.injectedFault = lastFiredFaultSite();
  ws.haveFailure = true;
  ws.lastFailureNonFinite = nonFinite;
}

}  // namespace

RealVector TransientResult::waveform(int mnaIndex) const {
  PSMN_CHECK(mnaIndex >= 0, "waveform of ground requested");
  PSMN_CHECK(states.empty() ||
                 static_cast<size_t>(mnaIndex) < states.front().size(),
             "waveform index out of range");
  RealVector w(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    w[i] = states[i][static_cast<size_t>(mnaIndex)];
  }
  return w;
}

bool integrateStep(const MnaSystem& sys, IntegrationMethod method, bool beStep,
                   Real t, Real h, RealVector& x, RealVector& q,
                   RealVector& qd, const RealVector* qm1,
                   const TranOptions& opt, TransientWorkspace& ws) {
  TraceSpan stepSpan(Phase::kStep, "tran_step", TraceDetail::kStep);
  const size_t n = sys.size();
  const Real t1 = t + h;
  IntegrationMethod m = beStep ? IntegrationMethod::kBackwardEuler : method;
  if (m == IntegrationMethod::kGear2 && qm1 == nullptr) {
    m = IntegrationMethod::kBackwardEuler;
  }

  // Integration coefficients: R = f1 + a*q1 + rhsQ, J = G1 + a*C1.
  Real a = 0.0;
  ws.rhsQ.resize(n);
  switch (m) {
    case IntegrationMethod::kBackwardEuler:
      a = 1.0 / h;
      for (size_t i = 0; i < n; ++i) ws.rhsQ[i] = -q[i] / h;
      break;
    case IntegrationMethod::kTrapezoidal:
      a = 2.0 / h;
      for (size_t i = 0; i < n; ++i) ws.rhsQ[i] = -2.0 * q[i] / h - qd[i];
      break;
    case IntegrationMethod::kGear2:
      a = 1.5 / h;
      for (size_t i = 0; i < n; ++i) {
        ws.rhsQ[i] = (-4.0 * q[i] + (*qm1)[i]) / (2.0 * h);
      }
      break;
  }

  ws.x1.assign(x.begin(), x.end());  // predictor: previous point

  bool converged = false;
  for (int iter = 0; iter < opt.maxNewton; ++iter) {
    TraceSpan iterSpan(Phase::kNewton, "newton_iter", TraceDetail::kKernel);
    // Evaluate and assemble J = G + a*C.
    sys.evalSparse(ws.x1, t1, &ws.f, &ws.q1, &ws.gsp, &ws.csp, {});
    ws.jac.assemble(ws.gsp, ws.csp, a);
    ++ws.stats.evals;
    ws.r.resize(n);
    for (size_t i = 0; i < n; ++i) ws.r[i] = ws.f[i] + a * ws.q1[i] + ws.rhsQ[i];
    const Real resNorm = maxAbsVec(ws.r);
    // Non-finite residual early-out (matching newtonSolve): the iterate
    // escaped the devices' range; further iteration cannot recover and a
    // NaN would poison the factorization, so fail the step now and let the
    // caller cut the timestep.
    if (!std::isfinite(resNorm)) {
      recordStepFailure(ws, sys, "tran-newton/non-finite-residual", iter,
                        -1.0, t1, /*nonFinite=*/true);
      return false;
    }

    // Factor: numeric refactorization on the kept pivot sequence, full
    // factor only on the first step or after a pivot breakdown.
    try {
      if (ws.sluSymbolic && ws.slu.refactor(ws.jac.matrix)) {
        ++ws.stats.refactorizations;
      } else {
        ws.slu.factor(ws.jac.matrix);
        ws.sluSymbolic = true;
        ++ws.stats.factorizations;
      }
      ws.stats.factorNnz = ws.slu.factorNonZeros();
    } catch (const NumericalError&) {
      recordStepFailure(ws, sys, "tran-newton/factorization", iter, resNorm,
                        t1, /*nonFinite=*/false);
      return false;
    }

    // Newton direction, solved in place on the negated residual.
    for (Real& v : ws.r) v = -v;
    ws.slu.solveInPlace(ws.r);
    ++ws.stats.solves;

    const Real stepNorm = maxAbsVec(ws.r);
    if (!std::isfinite(stepNorm)) {  // don't poison the iterate
      recordStepFailure(ws, sys, "tran-newton/non-finite-step", iter, resNorm,
                        t1, /*nonFinite=*/true);
      return false;
    }
    // Newton dx clamp (V); vital for regenerative latches.
    constexpr Real kMaxStep = 0.5;
    Real scale = 1.0;
    if (stepNorm > kMaxStep) scale = kMaxStep / stepNorm;
    for (size_t i = 0; i < n; ++i) ws.x1[i] += scale * ws.r[i];
    ++ws.stats.newtonIterations;
    telemetryCount(Counter::kNewtonIterations);
    if (resNorm < opt.residualTol && stepNorm * scale < opt.updateTol) {
      // Injected stagnation: refuse the acceptance and keep iterating (see
      // the matching probe in newtonSolve).
      if (faultShouldFire("tran.newton.converge")) continue;
      // Accept x1 after this sub-updateTol correction, but keep the final
      // iteration's q1/C/factored-J: they were evaluated a distance
      // < updateTol from the accepted point, an O(dx) error the tolerances
      // already admit, and skipping the re-evaluation removes one full
      // system eval per step. The sensitivity engine reuses the same
      // factorization, so each step factors the Jacobian exactly once.
      converged = true;
      break;
    }
  }
  if (!converged) {
    recordStepFailure(ws, sys, "tran-newton/stagnation", opt.maxNewton, -1.0,
                      t1, /*nonFinite=*/false);
    return false;
  }

  // Update the charge state from the accepted-point q1 (already evaluated).
  ws.qd1.resize(n);
  switch (m) {
    case IntegrationMethod::kBackwardEuler:
      for (size_t i = 0; i < n; ++i) ws.qd1[i] = (ws.q1[i] - q[i]) / h;
      break;
    case IntegrationMethod::kTrapezoidal:
      for (size_t i = 0; i < n; ++i) {
        ws.qd1[i] = 2.0 * (ws.q1[i] - q[i]) / h - qd[i];
      }
      break;
    case IntegrationMethod::kGear2:
      for (size_t i = 0; i < n; ++i) {
        ws.qd1[i] = (3.0 * ws.q1[i] - 4.0 * q[i] + (*qm1)[i]) / (2.0 * h);
      }
      break;
  }
  // Swap (not move) so the workspace keeps the old buffers' capacity and
  // the next step's copies stay allocation-free.
  std::swap(x, ws.x1);
  std::swap(q, ws.q1);
  std::swap(qd, ws.qd1);
  return true;
}

bool integrateStep(const MnaSystem& sys, IntegrationMethod method, bool beStep,
                   Real t, Real h, RealVector& x, RealVector& q,
                   RealVector& qd, const RealVector* qm1,
                   const TranOptions& opt) {
  TransientWorkspace ws;
  return integrateStep(sys, method, beStep, t, h, x, q, qd, qm1, opt, ws);
}

namespace {

/// Builds and throws the run-level error from the workspace post-mortem: a
/// NaN/Inf escape surfaces as NumericalError, a stalled Newton as
/// ConvergenceError.
[[noreturn]] void throwStepFailure(const TransientWorkspace& ws, Real t,
                                   const std::string& what) {
  FailureDiagnostics diag;
  if (ws.haveFailure) diag = ws.lastFailure;
  diag.analysis = "transient";
  if (!diag.hasTime) {
    diag.time = t;
    diag.hasTime = true;
  }
  const std::string msg = what + ": " + diag.describe();
  if (ws.haveFailure && ws.lastFailureNonFinite) {
    throw NumericalError(msg, std::move(diag));
  }
  throw ConvergenceError(msg, std::move(diag));
}

}  // namespace

TransientResult runTransient(const MnaSystem& sys, Real t0, Real t1, Real dt,
                             const TranOptions& opt) {
  PSMN_CHECK(t1 > t0 && dt > 0.0, "bad transient window");
  TraceSpan span(Phase::kTransient, "transient");
  const size_t n = sys.size();
  TransientResult result;

  // Initial state: DC operating point unless an explicit state is given.
  RealVector x;
  if (opt.initialState) {
    PSMN_CHECK(opt.initialState->size() == n, "bad initial state size");
    x = *opt.initialState;
  } else {
    DcOptions dopt;
    dopt.time = t0;
    x = solveDc(sys, dopt).x;
  }
  RealVector q;
  sys.evalDense(x, t0, nullptr, &q, nullptr, nullptr, {});
  RealVector qd(n, 0.0);
  RealVector qPrev;  // q at the pre-previous accepted point (Gear2)
  bool havePrev = false;

  if (opt.storeStates) {
    result.times.push_back(t0);
    result.states.push_back(x);
  }

  // Segment the window at breakpoints; merge stops closer than a fraction
  // of the nominal step (a breakpoint coinciding with t1 would otherwise
  // create a degenerate femtosecond segment).
  std::vector<Real> stops;
  for (Real bp : sys.collectBreakpoints(t0, t1)) {
    if (bp < t1 - 1e-3 * dt &&
        (stops.empty() || bp - stops.back() > 1e-3 * dt)) {
      stops.push_back(bp);
    }
  }
  stops.push_back(t1);

  // Per-run workspace: sparsity pattern, symbolic factorization, and step
  // scratch persist across every step below. The save buffer is swapped
  // (never moved-from) so the steady-state loop does not allocate.
  TransientWorkspace ws;
  RealVector qSave;

  Real t = t0;
  bool forceBE = true;  // first step and first step after each breakpoint
  for (Real stop : stops) {
    if (stop <= t) continue;
    // Uniform grid within the segment.
    const auto count = static_cast<size_t>(
        std::max<Real>(1.0, std::ceil((stop - t) / dt - 1e-9)));
    const Real hseg = (stop - t) / static_cast<Real>(count);
    for (size_t k = 0; k < count; ++k) {
      qSave.assign(q.begin(), q.end());
      if (!integrateStep(sys, opt.method, forceBE, t, hseg, x, q, qd,
                         havePrev ? &qPrev : nullptr, opt, ws)) {
        throwStepFailure(ws, t + hseg, "transient Newton failed at t=" +
                                           formatEng(t + hseg) + "s");
      }
      std::swap(qPrev, qSave);
      havePrev = true;
      forceBE = false;
      t += hseg;
      ++ws.stats.steps;
      telemetryCount(Counter::kStepsAccepted);
      if (opt.storeStates) {
        result.times.push_back(t);
        result.states.push_back(x);
      }
    }
    forceBE = true;  // restart the integrator after each breakpoint
    havePrev = false;
  }

  result.stats = ws.stats;
  result.finalState = std::move(x);
  return result;
}

}  // namespace psmn
