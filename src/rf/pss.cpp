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

struct PeriodIntegration {
  RealVector xEnd;
  std::vector<RealVector> states;     // 0..M, when the trajectory is kept
  std::vector<RealSparse> gSpMats;    // 0..M
  std::vector<RealSparse> cSpMats;
  SolveStats stats;  // cost delta of this integration (workspace snapshot)
};

/// Integrates one period from x0, optionally storing the trajectory with
/// its linearizations (what a monodromy sweep and the stored orbit need).
/// All solver state lives in `pw` and is reused across calls — shooting
/// iterations share one symbolic factorization.
PeriodIntegration integratePeriod(const MnaSystem& sys, const RealVector& x0,
                                  Real t0, Real period, int steps,
                                  const PssOptions& opt, bool wantTrajectory,
                                  PssWorkspace& pw) {
  PeriodIntegration out;
  out.xEnd = x0;
  const SolveStats before = pw.tran.stats;
  if (!wantTrajectory) {
    integratePeriodInPlace(sys, out.xEnd, t0, period, steps, opt, pw);
    out.stats = SolveStats::since(before, pw.tran.stats);
    return out;
  }

  const size_t n = sys.size();
  const Real h = period / steps;
  const TranOptions topt = shootingStepOptions(opt);
  TransientWorkspace& ws = pw.tran;

  // Initial linearization at (x0, t0): C_0 is the first step's coupling.
  RealVector& x = out.xEnd;
  pw.q.resize(n);
  sys.evalSparse(x, t0, nullptr, &pw.q, &ws.gsp, &ws.csp, {});
  out.gSpMats.push_back(ws.gsp);
  out.cSpMats.push_back(ws.csp);
  out.states.push_back(x);
  ++ws.stats.evals;  // the initial linearization evaluated above
  pw.qd.assign(n, 0.0);

  for (int k = 1; k <= steps; ++k) {
    if (!integrateStep(sys, IntegrationMethod::kBackwardEuler, true,
                       t0 + h * (k - 1), h, x, pw.q, pw.qd, nullptr, topt,
                       ws)) {
      throw ConvergenceError("PSS inner Newton failed at step " +
                             std::to_string(k));
    }
    ++ws.stats.steps;
    telemetryCount(Counter::kStepsAccepted);
    out.states.push_back(x);
    out.gSpMats.push_back(ws.gsp);
    out.cSpMats.push_back(ws.csp);
  }
  out.stats = SolveStats::since(before, pw.tran.stats);
  return out;
}

/// Sweeps Phi over one integrated period's stored linearization. The step
/// factors start from the workspace's symbolic factorization and only
/// refactor: the integration's Newton kernel factored these same J_k on it,
/// so the factor counts and, in practice, the factors are the kernel's. The
/// sweep's cost (M step factors, n * M solve columns) lands in `stats`.
RealMatrix periodMonodromy(const PeriodIntegration& pi, Real h,
                           const PssWorkspace& pw, ThreadPool* pool,
                           SolveStats& stats) {
  const StepFactors<Real> steps(pi.gSpMats, pi.cSpMats, h, 1.0 / h,
                                &pw.tran.slu);
  stats.factorizations += steps.factorizations();
  stats.refactorizations += steps.refactorizations();
  stats.solves += steps.size() * steps.steps();
  return sweepMonodromy(steps, pool);
}

/// Packs the converged shooting integration (its trajectory) into the
/// result; `stats` is the solve's cost, that integration included.
PssResult packResult(PeriodIntegration&& fin, Real t0, Real period, int steps,
                     int shootIters, const SolveStats& stats) {
  PssResult res;
  res.period = period;
  res.t0 = t0;
  res.states = std::move(fin.states);
  res.gSpMats = std::move(fin.gSpMats);
  res.cSpMats = std::move(fin.cSpMats);
  res.shootingIterations = shootIters;
  res.stats = stats;
  const Real h = period / steps;
  res.times.resize(steps + 1);
  for (int k = 0; k <= steps; ++k) res.times[k] = t0 + h * k;
  return res;
}

}  // namespace

// The period integration is plain fixed-step backward Euler, so the
// kernel's accepted-step linearization (factored J = G + C/h, plus C) is
// exactly the per-step companion Jacobian the monodromy product needs. The
// tolerances sit 10x below the transient defaults: shooting converges on
// max|x(T) - x0| < shootingTol (1e-9), which per-step Newton noise at 1e-9
// would swamp.
TranOptions shootingStepOptions(const PssOptions& opt) {
  TranOptions t;
  t.method = IntegrationMethod::kBackwardEuler;
  t.maxNewton = opt.maxNewton;
  t.residualTol = 1e-10;
  t.updateTol = 1e-10;
  return t;
}

void integratePeriodInPlace(const MnaSystem& sys, RealVector& x, Real t0,
                            Real period, int steps, const PssOptions& opt,
                            PssWorkspace& pw) {
  const size_t n = sys.size();
  const Real h = period / steps;
  const TranOptions topt = shootingStepOptions(opt);
  // Charge at the starting point (vector outputs only; the stepping kernel
  // owns the matrix evaluations).
  pw.q.resize(n);
  sys.evalDense(x, t0, nullptr, &pw.q, nullptr, nullptr, {});
  ++pw.tran.stats.evals;
  pw.qd.resize(n);
  std::fill(pw.qd.begin(), pw.qd.end(), 0.0);
  for (int k = 1; k <= steps; ++k) {
    if (!integrateStep(sys, IntegrationMethod::kBackwardEuler, true,
                       t0 + h * (k - 1), h, x, pw.q, pw.qd, nullptr, topt,
                       pw.tran)) {
      throw ConvergenceError("PSS inner Newton failed at step " +
                             std::to_string(k));
    }
    ++pw.tran.stats.steps;
    telemetryCount(Counter::kStepsAccepted);
  }
}

RealMatrix integrateMonodromy(const MnaSystem& sys, RealVector& x, Real t0,
                              Real period, int steps, const PssOptions& opt,
                              PssWorkspace& ws) {
  PeriodIntegration pi = integratePeriod(sys, x, t0, period, steps, opt,
                                         /*wantTrajectory=*/true, ws);
  x = std::move(pi.xEnd);
  return periodMonodromy(pi, period / steps, ws, opt.pool, ws.tran.stats);
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
    integratePeriodInPlace(sys, x, cyc * period, period, opt.stepsPerPeriod,
                           opt, pw);
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
    PeriodIntegration pi;
    try {
      pi = integratePeriod(sys, x0, 0.0, period, opt.stepsPerPeriod, opt,
                           true, pw);
    } catch (const ConvergenceError&) {
      // The last shooting update overshot into a region where the period
      // integration itself cannot converge; backtrack halfway and spend a
      // shooting iteration on the retry.
      if (!haveUpdate) throw;
      for (size_t i = 0; i < n; ++i) x0[i] = 0.5 * (x0[i] + prevX0[i]);
      continue;
    }
    RealVector r(n);
    for (size_t i = 0; i < n; ++i) r[i] = pi.xEnd[i] - x0[i];
    const Real rNorm = maxAbsVec(r);
    if (rNorm < opt.shootingTol) {
      iterations += iter + 1;
      // pw belongs to one solvePssDriven call: its tally is that solve's
      // cost.
      return packResult(std::move(pi), 0.0, period, opt.stepsPerPeriod,
                        iterations, pw.tran.stats);
    }
    // Newton: dx0 = (I - Phi)^{-1} r.
    RealMatrix iMinusPhi = RealMatrix::identity(n);
    iMinusPhi -= periodMonodromy(pi, period / opt.stepsPerPeriod, pw,
                                 opt.pool, pw.tran.stats);
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
  // orbit, and any other one sweeps its monodromy over it.
  PssWorkspace pw;
  SolveStats stats;
  RealVector x0 = x0guess;
  Real period = periodGuess;
  const Real phaseLevel = x0[phaseIndex];
  RealVector prevX0;
  Real prevPeriod = period;
  bool haveUpdate = false;
  Real lastRes = -1.0;
  RealVector r(n, 0.0);

  for (int iter = 0; iter < opt.maxShootingIterations; ++iter) {
    PeriodIntegration pi;
    try {
      pi = integratePeriod(sys, x0, 0.0, period, opt.stepsPerPeriod, opt,
                           true, pw);
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
    stats.add(pi.stats);
    for (size_t i = 0; i < n; ++i) r[i] = pi.xEnd[i] - x0[i];
    const Real rNorm = maxAbsVec(r);
    lastRes = rNorm;
    const Real phaseRes = x0[phaseIndex] - phaseLevel;
    if (rNorm < opt.shootingTol && std::fabs(phaseRes) < opt.shootingTol) {
      // d x(T)/dT at the solution, for the adjoint period sensitivity; the
      // converged integration is the base point.
      const Real dT = 1e-4 * period;
      const PeriodIntegration piT = integratePeriod(
          sys, x0, 0.0, period + dT, opt.stepsPerPeriod, opt, false, pw);
      RealVector dxdT(n);
      for (size_t i = 0; i < n; ++i) dxdT[i] = (piT.xEnd[i] - pi.xEnd[i]) / dT;
      PssResult res = packResult(std::move(pi), 0.0, period,
                                 opt.stepsPerPeriod, iter + 1, stats);
      res.autonomous = true;
      res.phaseIndex = phaseIndex;
      res.dxdT = std::move(dxdT);
      return res;
    }
    // dx(T)/dT by finite-differencing the whole integration. The FD step
    // must sit well above the inner Newton noise floor (~updateTol per
    // step): 1e-4*T gives a ~1e-4 V signal against ~1e-9 V noise, keeping
    // the bordered Jacobian clean (1e-7*T made shooting limp to the
    // iteration cap).
    const Real dT = 1e-4 * period;
    PeriodIntegration piT;
    try {
      piT = integratePeriod(sys, x0, 0.0, period + dT, opt.stepsPerPeriod,
                            opt, false, pw);
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
    stats.add(piT.stats);
    RealVector dxdT(n);
    for (size_t i = 0; i < n; ++i) dxdT[i] = (piT.xEnd[i] - pi.xEnd[i]) / dT;

    // Bordered Newton system on (x0, T):
    //   [ Phi - I   dxdT ] [dx0]   [ -r        ]
    //   [ e_p^T     0    ] [dT ] = [ -phaseRes ]
    const RealMatrix phi =
        periodMonodromy(pi, period / opt.stepsPerPeriod, pw, opt.pool, stats);
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
