#include "rf/pss.hpp"

#include <cmath>

#include <algorithm>
#include <limits>

#include "engine/dc.hpp"
#include "meas/measure.hpp"
#include "numeric/fourier.hpp"
#include "rf/step_factors.hpp"
#include "util/fault_injection.hpp"
#include "util/telemetry.hpp"

namespace psmn {
namespace {

/// Sweeps Phi over one integrated period's stored linearization. The step
/// factors start from the workspace's symbolic factorization and only
/// refactor: the integration's Newton kernel factored these same J_k on it,
/// so the factor counts and, in practice, the factors are the kernel's. The
/// sweep's cost (M step factors, n * M solve columns) lands in the
/// workspace tally.
RealMatrix periodMonodromy(const PssResult& orbit, Real h, PssWorkspace& pw,
                           ThreadPool* pool) {
  const StepFactors<Real> steps(orbit.gSpMats, orbit.cSpMats, h, 1.0 / h,
                                &pw.tran.slu);
  SolveStats& stats = pw.tran.stats;
  stats.factorizations += steps.factorizations();
  stats.refactorizations += steps.refactorizations();
  stats.solves += steps.size() * steps.steps();
  return sweepMonodromy(steps, pool);
}

/// Completes the converged shooting integration's trajectory into the
/// result; `stats` is the solve's cost, that integration included.
void finishOrbit(PssResult& orbit, Real period, int steps, int shootIters,
                 const SolveStats& stats) {
  orbit.period = period;
  orbit.shootingIterations = shootIters;
  orbit.stats = stats;
  const Real h = period / steps;
  orbit.times.resize(steps + 1);
  for (int k = 0; k <= steps; ++k) orbit.times[k] = h * k;
}

}  // namespace

// The period integration is plain fixed-step backward Euler, so the
// kernel's accepted-step linearization (factored J = G + C/h, plus C) is
// exactly the per-step companion Jacobian the monodromy product needs. The
// tolerances sit 10x below the transient defaults: shooting converges on
// max|x(T) - x0| < shootingTol (1e-9), which per-step Newton noise at 1e-9
// would swamp.
TranOptions shootingStepOptions() {
  TranOptions t;
  t.method = IntegrationMethod::kBackwardEuler;
  t.maxNewton = 60;
  t.residualTol = 1e-10;
  t.updateTol = 1e-10;
  return t;
}

void integratePeriod(const MnaSystem& sys, RealVector& x, Real t0,
                     Real period, int steps, PssWorkspace& pw,
                     PssResult* orbit) {
  const Real h = period / steps;
  const TranOptions topt = shootingStepOptions();
  TransientWorkspace& ws = pw.tran;
  const auto record = [&] {
    if (orbit == nullptr) return;
    orbit->states.push_back(x);
    orbit->gSpMats.push_back(ws.gsp);
    orbit->cSpMats.push_back(ws.csp);
  };
  // The starting point's charge, G and C: C_0 is the first step's coupling.
  sys.evalSparse(x, t0, nullptr, &pw.q, &ws.gsp, &ws.csp, {});
  ++ws.stats.evals;
  pw.qd.assign(sys.size(), 0.0);
  record();
  for (int k = 1; k <= steps; ++k) {
    if (!integrateStep(sys, IntegrationMethod::kBackwardEuler, true,
                       t0 + h * (k - 1), h, x, pw.q, pw.qd, nullptr, topt,
                       ws)) {
      throw ConvergenceError("PSS inner Newton failed at step " +
                             std::to_string(k));
    }
    ++ws.stats.steps;
    telemetryCount(Counter::kStepsAccepted);
    record();
  }
}

RealMatrix integrateMonodromy(const MnaSystem& sys, RealVector& x, Real t0,
                              Real period, int steps, const PssOptions& opt,
                              PssWorkspace& ws) {
  PssResult orbit;
  integratePeriod(sys, x, t0, period, steps, ws, &orbit);
  return periodMonodromy(orbit, period / steps, ws, opt.pool);
}

RealMatrix orbitMonodromy(const PssResult& pss, ThreadPool* pool) {
  PSMN_CHECK(pss.stepCount() > 0 && pss.gSpMats.size() == pss.times.size() &&
                 pss.cSpMats.size() == pss.times.size(),
             "PSS result lacks stored linearizations");
  const Real h = pss.stepSize();
  return sweepMonodromy(
      StepFactors<Real>(pss.gSpMats, pss.cSpMats, h, 1.0 / h), pool);
}

RealVector PssResult::waveform(int mnaIndex) const {
  PSMN_CHECK(mnaIndex >= 0, "waveform of ground requested");
  PSMN_CHECK(!states.empty() &&
                 static_cast<size_t>(mnaIndex) < states.front().size(),
             "waveform index out of range");
  const size_t m = stepCount();
  RealVector w(m);
  for (size_t k = 0; k < m; ++k) w[k] = states[k][mnaIndex];
  return w;
}

Cplx PssResult::fourier(int mnaIndex, int harmonic) const {
  const RealVector w = waveform(mnaIndex);
  return fourierCoefficient(w, harmonic);
}

RealVector pssWarmup(const MnaSystem& sys, Real period, int cycles,
                     const PssOptions& opt, const RealVector* x0,
                     PssWorkspace* ws) {
  PssWorkspace local;
  PssWorkspace& pw = ws ? *ws : local;
  RealVector x = x0 ? *x0 : solveDc(sys, {}).x;
  for (int cyc = 0; cyc < cycles; ++cyc) {
    integratePeriod(sys, x, cyc * period, period, opt.stepsPerPeriod, pw);
  }
  return x;
}

namespace {

/// Driven shooting Newton on x(T; x0) = x0 from `x0`, with the full
/// maxShootingIterations budget, all integrations on `pw`. Throws
/// ConvergenceError when the first integration fails (no update to back
/// off from) or the budget runs out. `iterations` accumulates across calls.
PssResult shootDriven(const MnaSystem& sys, Real period, const PssOptions& opt,
                      RealVector x0, PssWorkspace& pw, int& iterations) {
  const size_t n = sys.size();
  RealVector prevX0;
  bool haveUpdate = false;
  for (int iter = 0; iter < opt.maxShootingIterations; ++iter) {
    // The trajectory is kept on every iteration: the converged one is the
    // stored orbit, so no extra period is integrated after convergence, and
    // any other one sweeps its monodromy over it.
    PssResult orbit;
    RealVector xEnd = x0;
    try {
      integratePeriod(sys, xEnd, 0.0, period, opt.stepsPerPeriod, pw, &orbit);
    } catch (const ConvergenceError&) {
      // The last shooting update overshot into a region where the period
      // integration itself cannot converge; backtrack halfway and spend a
      // shooting iteration on the retry.
      if (!haveUpdate) throw;
      for (size_t i = 0; i < n; ++i) x0[i] = 0.5 * (x0[i] + prevX0[i]);
      continue;
    }
    RealVector r(n);
    for (size_t i = 0; i < n; ++i) r[i] = xEnd[i] - x0[i];
    const Real rNorm = maxAbsVec(r);
    if (rNorm < opt.shootingTol) {
      iterations += iter + 1;
      // pw belongs to one solvePssDriven call: its tally is that solve's
      // cost.
      finishOrbit(orbit, period, opt.stepsPerPeriod, iterations,
                  pw.tran.stats);
      return orbit;
    }
    // Newton: dx0 = (I - Phi)^{-1} r.
    RealMatrix iMinusPhi = RealMatrix::identity(n);
    iMinusPhi -=
        periodMonodromy(orbit, period / opt.stepsPerPeriod, pw, opt.pool);
    DenseLU<Real> lu(iMinusPhi);
    const RealVector dx0 = lu.solve(r);
    prevX0 = x0;
    haveUpdate = true;
    for (size_t i = 0; i < n; ++i) x0[i] += dx0[i];
  }
  iterations += opt.maxShootingIterations;
  throw ConvergenceError("driven PSS shooting did not converge");
}

}  // namespace

PssResult solvePssDriven(const MnaSystem& sys, Real period,
                         const PssOptions& opt, const RealVector* x0guess) {
  PSMN_CHECK(period > 0.0, "period must be positive");
  TraceSpan span(Phase::kPss, "pss_driven");
  const RealVector start = x0guess ? *x0guess : solveDc(sys, {}).x;
  PSMN_CHECK(start.size() == sys.size(), "bad initial guess size");

  // Shoot first: from the DC point most driven circuits converge in a few
  // iterations, so the settling transient is paid only when shooting fails.
  PssWorkspace pw;
  int iterations = 0;
  try {
    return shootDriven(sys, period, opt, start, pw, iterations);
  } catch (const ConvergenceError&) {
    if (opt.warmupCycles <= 0) throw;
  }
  // Fallback: warm up from the same start point and shoot again with a
  // fresh budget — exactly the warm-started solve.
  const RealVector warm =
      pssWarmup(sys, period, opt.warmupCycles, opt, &start, &pw);
  return shootDriven(sys, period, opt, warm, pw, iterations);
}

namespace {

/// Throws the autonomous shooting failure with its post-mortem: the stage,
/// the shooting iteration, the last orbit residual max|x(T) - x0| (when an
/// integration got that far) and the unknowns with the largest entries of
/// that residual.
[[noreturn]] void throwShootingFailure(const MnaSystem& sys, const char* stage,
                                       int iteration, Real residual,
                                       std::span<const Real> r) {
  FailureDiagnostics diag;
  diag.analysis = "pss";
  diag.stage = stage;
  diag.iteration = iteration;
  if (residual >= 0.0) diag.residual = residual;
  diag.suspectNodes = sys.suspectUnknowns(r);
  diag.injectedFault = lastFiredFaultSite();
  // The message is built first: the error's diagnostics parameter may be
  // moved from diag before a describe() in the same argument list runs.
  const std::string msg =
      "autonomous PSS shooting did not converge: " + diag.describe();
  throw ConvergenceError(msg, std::move(diag));
}

}  // namespace

PssResult solvePssAutonomous(const MnaSystem& sys, Real periodGuess,
                             int phaseIndex, const RealVector& x0guess,
                             const PssOptions& opt) {
  PSMN_CHECK(periodGuess > 0.0, "period guess must be positive");
  TraceSpan span(Phase::kPss, "pss_autonomous");
  const size_t n = sys.size();
  PSMN_CHECK(phaseIndex >= 0 && phaseIndex < static_cast<int>(n),
             "bad phase index");
  PSMN_CHECK(x0guess.size() == n, "bad initial guess size");

  // Every iteration keeps its trajectory: the converged one is the stored
  // orbit, and any other one sweeps its monodromy over it. The solve's cost
  // is the workspace tally, as in driven shooting.
  PssWorkspace pw;
  RealVector x0 = x0guess;
  Real period = periodGuess;
  const Real phaseLevel = x0[phaseIndex];
  RealVector prevX0;
  Real prevPeriod = period;
  bool haveUpdate = false;
  Real lastRes = -1.0;
  RealVector r(n, 0.0);

  for (int iter = 0; iter < opt.maxShootingIterations; ++iter) {
    PssResult orbit;
    RealVector xEnd = x0;
    try {
      integratePeriod(sys, xEnd, 0.0, period, opt.stepsPerPeriod, pw, &orbit);
    } catch (const ConvergenceError&) {
      // Backtrack the last bordered update (see solvePssDriven); with no
      // update yet the guess itself is outside the integrable region.
      if (!haveUpdate) {
        throwShootingFailure(sys, "shooting/integration", iter, lastRes, r);
      }
      for (size_t i = 0; i < n; ++i) x0[i] = 0.5 * (x0[i] + prevX0[i]);
      period = 0.5 * (period + prevPeriod);
      continue;
    }
    for (size_t i = 0; i < n; ++i) r[i] = xEnd[i] - x0[i];
    const Real rNorm = maxAbsVec(r);
    lastRes = rNorm;
    const Real phaseRes = x0[phaseIndex] - phaseLevel;
    // dx(T)/dT by finite-differencing the whole integration. The FD step
    // must sit well above the inner Newton noise floor (~updateTol per
    // step): 1e-4*T gives a ~1e-4 V signal against ~1e-9 V noise, keeping
    // the bordered Jacobian clean (1e-7*T made shooting limp to the
    // iteration cap).
    const Real dT = 1e-4 * period;
    RealVector xT = x0;
    if (rNorm < opt.shootingTol && std::fabs(phaseRes) < opt.shootingTol) {
      // d x(T)/dT at the solution, for the adjoint period sensitivity; the
      // converged integration is the base point. Its cost is not the
      // solve's.
      const SolveStats stats = pw.tran.stats;
      integratePeriod(sys, xT, 0.0, period + dT, opt.stepsPerPeriod, pw);
      RealVector dxdT(n);
      for (size_t i = 0; i < n; ++i) dxdT[i] = (xT[i] - xEnd[i]) / dT;
      finishOrbit(orbit, period, opt.stepsPerPeriod, iter + 1, stats);
      orbit.autonomous = true;
      orbit.phaseIndex = phaseIndex;
      orbit.dxdT = std::move(dxdT);
      return orbit;
    }
    try {
      integratePeriod(sys, xT, 0.0, period + dT, opt.stepsPerPeriod, pw);
    } catch (const ConvergenceError&) {
      // The base integration converged but the dT-perturbed one did not:
      // the iterate sits on the edge of the integrable region. Backtrack
      // like a failed base integration instead of aborting the solve.
      if (!haveUpdate) {
        throwShootingFailure(sys, "shooting/integration", iter, lastRes, r);
      }
      for (size_t i = 0; i < n; ++i) x0[i] = 0.5 * (x0[i] + prevX0[i]);
      period = 0.5 * (period + prevPeriod);
      continue;
    }
    RealVector dxdT(n);
    for (size_t i = 0; i < n; ++i) dxdT[i] = (xT[i] - xEnd[i]) / dT;

    // Bordered Newton system on (x0, T):
    //   [ Phi - I   dxdT ] [dx0]   [ -r        ]
    //   [ e_p^T     0    ] [dT ] = [ -phaseRes ]
    const RealMatrix phi =
        periodMonodromy(orbit, period / opt.stepsPerPeriod, pw, opt.pool);
    RealMatrix a(n + 1, n + 1);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) a(i, j) = phi(i, j);
      a(i, i) -= 1.0;
      a(i, n) = dxdT[i];
    }
    a(n, phaseIndex) = 1.0;
    RealVector rhs(n + 1);
    for (size_t i = 0; i < n; ++i) rhs[i] = -r[i];
    rhs[n] = -phaseRes;
    const RealVector upd = DenseLU<Real>(a).solve(rhs);
    prevX0 = x0;
    prevPeriod = period;
    haveUpdate = true;
    // Trust region on the state update (the shooting analog of the inner
    // Newton's dx clamp, in V): long rings carry near-marginal Floquet
    // modes (multipliers crowding 1), so Phi - I is nearly singular along
    // them and an unclamped bordered step can launch the iterate tens of
    // volts off the orbit.
    constexpr Real kMaxStateStep = 0.5;
    Real updNorm = 0.0;
    for (size_t i = 0; i < n; ++i) {
      updNorm = std::max(updNorm, std::fabs(upd[i]));
    }
    const Real updScale =
        updNorm > kMaxStateStep ? kMaxStateStep / updNorm : 1.0;
    for (size_t i = 0; i < n; ++i) x0[i] += updScale * upd[i];
    // Trust region on the period update, as a fraction of the period: far
    // from the orbit the bordered Jacobian can demand a huge dT (once
    // driving the period negative, or letting shooting "converge" onto the
    // DC equilibrium with a seconds-long period). Capping |dT| keeps the
    // iteration inside the basin while leaving converged results untouched.
    constexpr Real kMaxPeriodRelStep = 0.1;
    Real dPeriod = upd[n];
    const Real maxDT = kMaxPeriodRelStep * period;
    if (std::fabs(dPeriod) > maxDT) dPeriod = std::copysign(maxDT, dPeriod);
    period += dPeriod;
    PSMN_CHECK(period > 0.0, "autonomous shooting drove the period negative");
  }
  throwShootingFailure(sys, "shooting/stagnation", opt.maxShootingIterations,
                       lastRes, r);
}

RingWarmup warmupRingOscillator(const MnaSystem& sys,
                                const RingOscillatorCircuit& osc,
                                Real runTime, Real dt) {
  const Netlist& nl = sys.netlist();
  RealVector kick = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    kick[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.25 : -0.25);
  }
  // Free-run to the limit cycle and measure the period at stage 0.
  RingWarmup w;
  const int stage0 = nl.nodeIndex(osc.stages[0]);
  TranOptions topt;
  topt.method = IntegrationMethod::kBackwardEuler;
  topt.initialState = &kick;
  const TransientResult tr = runTransient(sys, 0.0, runTime, dt, topt);
  const Waveform wave = makeWaveform(tr.times, tr.states, stage0);
  const Real lo = *std::min_element(wave.values.begin(), wave.values.end());
  const Real hi = *std::max_element(wave.values.begin(), wave.values.end());
  const Real mid = 0.5 * (lo + hi);
  w.periodEstimate = measurePeriod(wave, mid, 3);
  w.state = tr.finalState;
  // Phase-anchor on the stage closest to mid-swing at the final state. In
  // a long ring, most stages sit railed at any instant (the front is
  // elsewhere), and pinning a railed node gives the shooting solve a
  // phase row the orbit barely moves along — a near-singular bordered
  // Jacobian. The switching stage has the largest |dx/dt| instead.
  w.phaseIndex = stage0;
  Real best = std::numeric_limits<Real>::max();
  for (const NodeId stage : osc.stages) {
    const int idx = nl.nodeIndex(stage);
    const Real d = std::fabs(w.state[idx] - mid);
    if (d < best) {
      best = d;
      w.phaseIndex = idx;
    }
  }
  return w;
}

}  // namespace psmn
