#include "engine/dc.hpp"

#include <cmath>

namespace psmn {
namespace {

constexpr int kMaxIterations = 150;  // Newton iterations per solve

Real dotVec(std::span<const Real> a, std::span<const Real> b) {
  Real s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// One damped-Newton solve of f(x) = 0 at the given source scale and node
/// shunt, on the shared workspace. False on failure, with the post-mortem
/// in ws.lastFailure.
bool newtonSolve(const MnaSystem& sys, RealVector& x, const DcOptions& opt,
                 Real sourceScale, Real gshunt, NewtonWorkspace& ws) {
  TraceSpan rungSpan(Phase::kStep, "newton_solve", TraceDetail::kStep);
  MnaSystem::EvalOptions eopt;
  eopt.sourceScale = sourceScale;
  eopt.gshunt = gshunt;
  const NewtonSpec spec{kMaxIterations, opt.residualTol, opt.updateTol, "dc",
                        "newton", "dc.newton.converge"};
  return dampedNewton(sys, x, spec, ws,
                      [&](const RealVector& xi) -> const RealSparse& {
                        sys.evalSparse(xi, opt.time, &ws.r, nullptr, &ws.gsp,
                                       nullptr, eopt);
                        return ws.gsp;
                      });
}

/// Cold-path failure recorder for the arclength trace.
void recordFailure(NewtonWorkspace& ws, const MnaSystem& sys,
                   const char* stage, int iteration,
                   std::span<const Real> f) {
  ws.recordFailure(sys, "dc", stage, iteration, -1.0, f);
}

}  // namespace

bool solveDcArclength(const MnaSystem& sys, RealVector& x,
                      const DcOptions& opt, NewtonWorkspace& ws,
                      int* stepsOut) {
  TraceSpan span(Phase::kDc, "dc_arclength");
  constexpr int kSteps = 200;      // predictor-corrector steps per trace
  constexpr Real kDs = 0.1;        // initial arc step (V-ish units)
  constexpr Real kDsMin = 1e-6;    // give up when the step collapses
  constexpr Real kDsMax = 0.5;     // growth cap after easy correctors
  constexpr int kCorrectorIterations = 20;
  const size_t n = sys.size();
  MnaSystem::EvalOptions eopt;
  const Real dLamFd = 1e-6;  // FD step for f_lambda (lambda is O(1))

  // Evaluates f into ws.r and factors J = df/dx at (xe, lambda) on the
  // shared workspace. False on a pivot breakdown or a non-finite residual.
  auto factorAt = [&](const RealVector& xe, Real lambda) -> bool {
    eopt.sourceScale = lambda;
    try {
      sys.evalSparse(xe, opt.time, &ws.r, nullptr, &ws.gsp, nullptr, eopt);
      ++ws.stats.evals;
      ws.factor(ws.gsp);
    } catch (const NumericalError&) {
      return false;
    }
    return std::isfinite(maxAbsVec(ws.r));
  };
  // f_lambda at (xe, lambda) by forward difference against fAt (= f there).
  RealVector fPert;
  auto evalFLambda = [&](const RealVector& xe, Real lambda,
                         std::span<const Real> fAt, RealVector& fl) {
    MnaSystem::EvalOptions pe = eopt;
    pe.sourceScale = lambda + dLamFd;
    sys.evalDense(xe, opt.time, &fPert, nullptr, nullptr, nullptr, pe);
    ++ws.stats.evals;
    fl.resize(n);
    for (size_t i = 0; i < n; ++i) fl[i] = (fPert[i] - fAt[i]) / dLamFd;
  };

  // Anchor the curve at lambda = 0 (all independent sources off). If even
  // that fails there is nothing to continue from.
  x.assign(n, 0.0);
  if (!newtonSolve(sys, x, opt, 0.0, 0.0, ws)) {
    return false;
  }
  const RealVector xAnchor = x;

  RealVector fl(n), w(n), ab(2 * n), xc(n), fAccept(n);

  // Traces the solution curve from the anchor with the given starting
  // orientation (+1: toward +lambda, -1: toward -lambda). True once a
  // lambda = 1 crossing has been polished to a solution (left in x).
  auto traceFrom = [&](Real orient) -> bool {
  x = xAnchor;
  Real lam = 0.0;
  RealVector tx(n, 0.0);  // tangent, x part (previous step's, for
  Real tl = orient;       // orientation); seeded along `orient`
  Real ds = kDs;
  int accepted = 0;

  for (int step = 0; step < kSteps; ++step) {
    // --- Tangent at the accepted point: J w = -f_lambda, t ~ (w, 1).
    if (!factorAt(x, lam)) {
      recordFailure(ws, sys, "arclength/tangent", step, ws.r);
      return false;
    }
    fAccept = ws.r;
    evalFLambda(x, lam, fAccept, fl);
    w.assign(fl.begin(), fl.end());
    for (Real& v : w) v = -v;
    ws.solve(w);
    Real norm = std::sqrt(dotVec(w, w) + 1.0);
    if (!std::isfinite(norm) || norm == 0.0) {
      recordFailure(ws, sys, "arclength/tangent", step, fAccept);
      return false;
    }
    Real tauL = 1.0 / norm;
    // Orient along the previous tangent so the trace never doubles back;
    // through a fold this flips the sign of the lambda component — exactly
    // the turning-point traversal the ladders cannot do.
    const Real dir = dotVec(w, tx) / norm + tauL * tl;
    Real sgn = dir >= 0.0 ? 1.0 : -1.0;
    for (size_t i = 0; i < n; ++i) tx[i] = sgn * w[i] / norm;
    tl = sgn * tauL;

    // --- Predictor + corrector, halving ds until a step is accepted.
    bool stepAccepted = false;
    Real lamc = lam;
    while (!stepAccepted) {
      for (size_t i = 0; i < n; ++i) xc[i] = x[i] + ds * tx[i];
      lamc = lam + ds * tl;

      bool converged = false;
      for (int it = 0; it < kCorrectorIterations; ++it) {
        if (!factorAt(xc, lamc)) break;
        const Real resNorm = maxAbsVec(ws.r);
        evalFLambda(xc, lamc, ws.r, fl);
        // Bordered system by block elimination on the factored J:
        //   [ J    f_l ] [dx ]   [ -f ]        J a = f,  J b = f_l
        //   [ tx^T tl  ] [dl ] = [ -N ]   =>   dl = (tx.a - N)/(tl - tx.b)
        //                                      dx = -a - dl*b
        // One batched 2-column solve against the factorization.
        for (size_t i = 0; i < n; ++i) ab[i] = ws.r[i];
        for (size_t i = 0; i < n; ++i) ab[n + i] = fl[i];
        ws.solve(ab, 2);
        const std::span<const Real> a(ab.data(), n);
        const std::span<const Real> b(ab.data() + n, n);
        Real bigN = tl * (lamc - lam) - ds;
        for (size_t i = 0; i < n; ++i) bigN += tx[i] * (xc[i] - x[i]);
        const Real denom = tl - dotVec(tx, b);
        const Real dl = (dotVec(tx, a) - bigN) / denom;
        if (!std::isfinite(dl)) break;
        Real stepNorm = std::fabs(dl);
        for (size_t i = 0; i < n; ++i) {
          stepNorm = std::max(stepNorm, std::fabs(a[i] + dl * b[i]));
        }
        if (!std::isfinite(stepNorm)) break;
        Real scale = 1.0;
        if (stepNorm > kMaxNewtonStep) scale = kMaxNewtonStep / stepNorm;
        for (size_t i = 0; i < n; ++i) {
          xc[i] += scale * (-a[i] - dl * b[i]);
        }
        lamc += scale * dl;
        ws.countIteration();
        if (resNorm < opt.residualTol && stepNorm * scale < opt.updateTol) {
          converged = true;
          // Grow the arc step after an easy corrector (few iterations).
          if (it <= 3) ds = std::min(ds * 1.5, kDsMax);
          break;
        }
      }
      if (converged) {
        stepAccepted = true;
      } else {
        ds *= 0.5;
        if (ds < kDsMin) {
          recordFailure(ws, sys, "arclength/step-collapse", step, ws.r);
          return false;
        }
      }
    }

    // --- Crossing lambda = 1: polish with plain Newton from the
    // interpolated crossing point. A miss is not fatal — the curve may
    // fold back and cross again; keep tracing.
    if ((lam - 1.0) * (lamc - 1.0) <= 0.0 && lamc != lam) {
      const Real frac = (1.0 - lam) / (lamc - lam);
      RealVector xi(n);
      for (size_t i = 0; i < n; ++i) xi[i] = x[i] + frac * (xc[i] - x[i]);
      if (newtonSolve(sys, xi, opt, 1.0, 0.0, ws)) {
        x = xi;
        if (stepsOut) *stepsOut = accepted + 1;
        return true;
      }
    }

    x = xc;
    lam = lamc;
    ++accepted;
    // Runaway guard: a trace this far outside the homotopy interval is
    // following a disconnected branch and will not reach lambda = 1.
    if (lam < -1.0 || lam > 3.0) {
      recordFailure(ws, sys, "arclength/lambda-escape", step, ws.r);
      return false;
    }
  }
  recordFailure(ws, sys, "arclength/out-of-steps", kSteps, ws.r);
  return false;
  };  // traceFrom

  // Two-sided tracing: the physical branch through lambda = 1 sometimes
  // leaves the anchor in the -lambda direction first (around a lower fold)
  // — a one-sided trace would follow the other arm to a dead end.
  for (const Real orient : {1.0, -1.0}) {
    if (traceFrom(orient)) return true;
  }
  return false;
}

DcResult solveDc(const MnaSystem& sys, const DcOptions& opt,
                 const RealVector* initialGuess) {
  TraceSpan span(Phase::kDc, "dc");
  DcResult result;
  result.x.assign(sys.size(), 0.0);
  if (initialGuess) {
    PSMN_CHECK(initialGuess->size() == sys.size(), "bad initial guess size");
    result.x = *initialGuess;
  }

  // One workspace for every strategy below: the sparsity pattern and
  // symbolic factorization survive across homotopy rungs.
  NewtonWorkspace ws;

  // Plain Newton first.
  if (newtonSolve(sys, result.x, opt, 1.0, 0.0, ws)) {
    result.stats = ws.stats;
    return result;
  }

  // Gmin stepping with backtracking: solve with a strong shunt, relax it
  // rung by rung toward zero, warm-starting each rung. A failed rung no
  // longer aborts the ladder (the old behavior, which killed deep logic
  // chains whose Newton escape happens at one specific shunt level):
  // instead the iterate reverts to the last converged rung and the rung is
  // re-tightened — the relaxation ratio backs off toward 1, halving the
  // stride in log-gshunt — then cautiously re-widened after each success.
  if (opt.gminSteps > 0) {
    RealVector x(sys.size(), 0.0);
    RealVector xGood;
    Real g = 1e-2;             // current rung's shunt
    Real gGood = 0.0;          // shunt of the last converged rung
    Real relax = 0.1;          // rung ratio; in [0.1, 1)
    constexpr Real kGminFloor = 1e-14;
    bool haveGood = false;
    // Rung budget including retries: the plain ladder used gminSteps rungs;
    // backtracking may re-walk hard levels at a finer stride.
    for (int attempt = 0; attempt < 6 * opt.gminSteps; ++attempt) {
      if (newtonSolve(sys, x, opt, 1.0, g, ws)) {
        xGood = x;
        gGood = g;
        haveGood = true;
        if (g <= kGminFloor) break;  // ladder bottomed out
        relax = std::max(0.1, relax * relax);  // re-widen the stride
        g = std::max(g * relax, kGminFloor);
      } else if (!haveGood) {
        // Even the strongest rung so far diverged: stiffen the start. The
        // failed Newton may have left x huge-but-finite; restart the
        // stiffer rung from zero or it inherits the escaped iterate.
        if (g >= 1e6) break;
        x.assign(sys.size(), 0.0);
        g *= 100.0;
      } else {
        // Backtrack to the last converged rung and take a smaller
        // relaxation step from there.
        x = xGood;
        relax = std::sqrt(relax);
        if (relax > 0.97) break;  // stride collapsed: give up this ladder
        g = std::max(gGood * relax, kGminFloor);
      }
    }
    // Final solve without the shunt.
    if (haveGood) {
      x = xGood;
      if (newtonSolve(sys, x, opt, 1.0, 0.0, ws)) {
        result.x = x;
        result.stats = ws.stats;
        return result;
      }
    }
  }

  // Source stepping with backtracking: ramp all independent sources from
  // zero; a failed rung reverts to the last converged scale and halves the
  // ramp increment instead of aborting.
  {
    constexpr int kSourceSteps = 10;  // nominal ladder length
    RealVector x(sys.size(), 0.0);
    RealVector xGood(sys.size(), 0.0);
    Real scale = 0.0;
    const Real dsNominal = 1.0 / kSourceSteps;
    Real ds = dsNominal;
    constexpr Real kDsMin = 1e-4;
    bool stalled = false;
    for (int attempt = 0; attempt < 8 * kSourceSteps && scale < 1.0;
         ++attempt) {
      const Real target = std::min(1.0, scale + ds);
      if (newtonSolve(sys, x, opt, target, 0.0, ws)) {
        scale = target;
        xGood = x;
        ds = std::min(ds * 2.0, dsNominal);  // re-widen after success
      } else {
        x = xGood;
        ds *= 0.5;  // re-tighten the rung
        if (ds < kDsMin) {
          stalled = true;
          break;
        }
      }
    }
    if (!stalled && scale >= 1.0) {
      result.x = x;
      result.stats = ws.stats;
      return result;
    }
  }

  // Pseudo-arclength continuation: both ramped ladders stalled, which on a
  // circuit with a fold means the branch they were following vanished.
  // Trace the solution curve itself instead.
  {
    RealVector x;
    if (solveDcArclength(sys, x, opt, ws, &result.arclengthSteps)) {
      result.x = x;
      result.usedArclength = true;
      result.stats = ws.stats;
      return result;
    }
  }

  FailureDiagnostics diag = ws.lastFailure;
  diag.analysis = "dc";
  if (diag.stage.empty()) diag.stage = "ladder";
  // Built before the throw: the error's diagnostics parameter may be moved
  // from diag before a describe() in the same argument list runs.
  const std::string msg =
      "DC operating point failed to converge (gmin/source ladders and "
      "arclength continuation exhausted): " + diag.describe();
  throw ConvergenceError(msg, std::move(diag));
}

}  // namespace psmn
