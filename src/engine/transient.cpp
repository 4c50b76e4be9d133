#include "engine/transient.hpp"

#include <cmath>

#include "util/units.hpp"

namespace psmn {

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

  // Newton from the previous point. Accepting x1 after the final sub-
  // updateTol correction keeps that iteration's q1/C/factored J: they were
  // evaluated a distance < updateTol from the accepted point, an O(dx)
  // error the tolerances already admit, and skipping the re-evaluation
  // saves one full system eval per step. The sensitivity engine reuses the
  // same factorization, so each step factors the Jacobian exactly once.
  ws.x1.assign(x.begin(), x.end());
  const NewtonSpec spec{opt.maxNewton, opt.residualTol, opt.updateTol,
                        "transient", "tran-newton", "tran.newton.converge"};
  const bool converged = dampedNewton(
      sys, ws.x1, spec, ws, [&](const RealVector& x1) -> const RealSparse& {
        sys.evalSparse(x1, t1, &ws.r, &ws.q1, &ws.gsp, &ws.csp, {});
        ws.jac.assemble(ws.gsp, ws.csp, a);
        for (size_t i = 0; i < n; ++i) {
          ws.r[i] = ws.r[i] + a * ws.q1[i] + ws.rhsQ[i];
        }
        return ws.jac.matrix;
      });
  if (!converged) {
    ws.lastFailure.time = t1;
    ws.lastFailure.hasTime = true;
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

namespace {

/// Throws the run-level error from the failed step's post-mortem: a NaN/Inf
/// escape surfaces as NumericalError, a stalled Newton as ConvergenceError.
[[noreturn]] void throwStepFailure(const TransientWorkspace& ws,
                                   const std::string& what) {
  FailureDiagnostics diag = ws.lastFailure;
  const std::string msg = what + ": " + diag.describe();
  if (ws.lastFailureNonFinite) throw NumericalError(msg, std::move(diag));
  throw ConvergenceError(msg, std::move(diag));
}

}  // namespace

TransientResult runTransient(const MnaSystem& sys, Real t0, Real t1, Real dt,
                             const TranOptions& opt) {
  TraceSpan span(Phase::kTransient, "transient");
  TransientWorkspace ws;
  return runTransient(sys, t0, t1, dt, opt, ws, nullptr);
}

TransientResult runTransient(const MnaSystem& sys, Real t0, Real t1, Real dt,
                             const TranOptions& opt, TransientWorkspace& ws,
                             const TransientStepHook& onPoint) {
  PSMN_CHECK(t1 > t0 && dt > 0.0, "bad transient window");
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
  // The initial charge, with G and C there in the workspace for the hook.
  RealVector q;
  sys.evalSparse(x, t0, nullptr, &q, &ws.gsp, &ws.csp, {});
  RealVector qd(n, 0.0);
  RealVector qPrev;  // q at the pre-previous accepted point (Gear2)
  bool havePrev = false;

  if (opt.storeStates) {
    result.times.push_back(t0);
    result.states.push_back(x);
  }
  if (onPoint) onPoint(t0, 0.0, x);

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

  // The workspace's sparsity pattern, symbolic factorization, and step
  // scratch persist across every step below. The save buffer is swapped
  // (never moved-from) so the steady-state loop does not allocate.
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
        throwStepFailure(ws, "transient Newton failed at t=" +
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
      if (onPoint) onPoint(t, hseg, x);
    }
    forceBE = true;  // restart the integrator after each breakpoint
    havePrev = false;
  }

  result.stats = ws.stats;
  result.finalState = std::move(x);
  return result;
}

}  // namespace psmn
