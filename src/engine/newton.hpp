// The damped-Newton kernel: the one Newton iteration of the DC solver
// (engine/dc) and of every transient step (engine/transient), and through
// the steps of every shooting period (rf/pss). A caller assembles its
// residual R(x) and Jacobian J; the kernel does the rest — the non-finite
// guards, factor-or-refactor, the solve, the step clamp, the convergence
// test with its fault probe, the failure post-mortem — and counts each
// eval, factor, refactor, solve and iteration once, in the workspace's
// SolveStats (the LU and MNA layers count the same events in telemetry).
#pragma once

#include <cmath>
#include <span>
#include <string>

#include "engine/mna.hpp"
#include "numeric/sparse_lu.hpp"
#include "util/fault_injection.hpp"
#include "util/telemetry.hpp"

namespace psmn {

/// Max-norm that propagates non-finites: std::max drops NaN (the comparison
/// is false), so a poisoned residual would otherwise read as norm 0 and be
/// accepted as converged.
Real maxAbsVec(std::span<const Real> v);

/// Newton step clamp (V per iteration): keeps exponential devices in range;
/// vital for regenerative latches.
inline constexpr Real kMaxNewtonStep = 0.5;

/// What tells one kernel caller from another, as data.
struct NewtonSpec {
  int maxIterations;
  Real residualTol;  // max |R|
  Real updateTol;    // max |dx| of the applied (clamped) step
  const char* analysis;     // FailureDiagnostics::analysis
  const char* stagePrefix;  // FailureDiagnostics::stage is "<prefix>/<why>"
  const char* faultSite;    // probe that refuses a convergence acceptance
};

/// Solver state kept across the solves of one system: the residual and step
/// buffers, G on the system's pattern, and the sparse factorization whose
/// pivot order every later solve refactors on (across Newton iterations,
/// DC homotopy rungs and transient steps). `stats` tallies everything run
/// through it.
struct NewtonWorkspace {
  RealVector r;    // residual at the latest iterate (the caller assembles it)
  RealVector dx;   // Newton step; apart from r, so a post-mortem can rank r
  RealSparse gsp;  // G at the latest iterate
  SparseLU<Real> slu;
  bool sluSymbolic = false;  // slu carries a reusable symbolic factorization
  SolveStats stats;

  /// Post-mortem of the most recent solve that returned false (stage,
  /// iteration, last finite residual norm, unknowns ranked by the
  /// residual; empty before any failure). The engines fold it into the
  /// error they throw; `lastFailureNonFinite` tells a NaN/Inf escape from
  /// a stall.
  FailureDiagnostics lastFailure;
  bool lastFailureNonFinite = false;

  /// Factors `jac`: a numeric refactor on the kept pivot order, a full
  /// factorization on the first call or when a kept pivot fails. Counts it;
  /// throws NumericalError on a breakdown.
  void factor(const RealSparse& jac);
  /// Solves J y = b in place for `cols` column-major right-hand sides
  /// against the latest factor, and counts them.
  void solve(std::span<Real> b, size_t cols = 1);
  /// Counts one Newton iteration (SolveStats and telemetry).
  void countIteration();
  /// Records a failure (cold path); the suspects rank `residual`.
  void recordFailure(const MnaSystem& sys, const char* analysis,
                     std::string stage, int iteration, Real residualNorm,
                     std::span<const Real> residual, bool nonFinite = false);
};

/// Runs damped Newton on x from its current value. `assemble(x)` evaluates
/// R(x) into ws.r and returns J = dR/dx on a fixed pattern. Each iteration
/// solves J dx = -R, clamps max|dx| to kMaxNewtonStep, and accepts once
/// max|R| < residualTol and the applied step < updateTol; x then holds the
/// iterate after that last step, and ws holds the factored J of the last
/// evaluation, a distance < updateTol away. Returns false, with the
/// post-mortem in ws, on a non-finite residual or step, a factorization
/// breakdown, or when maxIterations run out.
template <class Assemble>
bool dampedNewton(const MnaSystem& sys, RealVector& x, const NewtonSpec& spec,
                  NewtonWorkspace& ws, Assemble&& assemble) {
  const auto fail = [&](const char* why, int iter, Real res, bool nonFinite) {
    ws.recordFailure(sys, spec.analysis,
                     std::string(spec.stagePrefix) + "/" + why, iter, res,
                     ws.r, nonFinite);
    return false;
  };
  Real lastRes = -1.0;
  for (int iter = 0; iter < spec.maxIterations; ++iter) {
    TraceSpan iterSpan(Phase::kNewton, "newton_iter", TraceDetail::kKernel);
    const RealSparse& jac = assemble(x);
    ++ws.stats.evals;
    const Real resNorm = maxAbsVec(ws.r);
    // A non-finite residual means the iterate escaped the devices' range
    // (exp overflow on a deep logic chain rung): no further iteration
    // recovers and a NaN would poison the factorization, so fail now and
    // let the caller back off (a homotopy rung, a shorter step).
    if (!std::isfinite(resNorm)) {
      return fail("non-finite-residual", iter, lastRes, true);
    }
    lastRes = resNorm;
    try {
      ws.factor(jac);
    } catch (const NumericalError&) {
      return fail("factorization", iter, resNorm, false);
    }
    ws.dx.resize(ws.r.size());
    for (size_t i = 0; i < ws.r.size(); ++i) ws.dx[i] = -ws.r[i];
    ws.solve(ws.dx);
    const Real stepNorm = maxAbsVec(ws.dx);
    if (!std::isfinite(stepNorm)) {  // don't poison the iterate
      return fail("non-finite-step", iter, resNorm, true);
    }
    Real scale = 1.0;
    if (stepNorm > kMaxNewtonStep) scale = kMaxNewtonStep / stepNorm;
    for (size_t i = 0; i < x.size(); ++i) x[i] += scale * ws.dx[i];
    ws.countIteration();
    // An armed fault site refuses the acceptance, so the solve exhausts
    // maxIterations exactly like a genuinely stuck Newton.
    if (resNorm < spec.residualTol && stepNorm * scale < spec.updateTol &&
        !faultShouldFire(spec.faultSite)) {
      return true;
    }
  }
  return fail("stagnation", spec.maxIterations, lastRes, false);
}

}  // namespace psmn
