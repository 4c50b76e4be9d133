// Dense references for the sparse Newton path. The engines assemble every
// Jacobian on the system's declared pattern and factor it with SparseLU;
// the checks here re-derive what an engine returned with DenseLU on
// evalDense matrices, and never run the engines' sparse linear algebra.
//
// A distance is one dense Newton correction |J^{-1} r|_inf of a discrete
// equation (DC, one implicit step, one sensitivity step) evaluated at a
// returned solution: to first order, how far that solution lies from the
// exact solution of its discrete equation. The engines stop Newton once
// the update falls below updateTol, so a correct run has distances of
// about updateTol or less; a fault in the sparse assembly, ordering,
// refactorization or substitution moves the solution and shows up here.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "engine/mna.hpp"
#include "numeric/dense_lu.hpp"

namespace psmn::oracle {

inline Real maxAbs(std::span<const Real> v) {
  Real m = 0.0;
  for (Real x : v) m = std::max(m, std::fabs(x));
  return m;
}

/// |J^{-1} r|_inf with a dense LU of J.
inline Real newtonDistance(const RealMatrix& j, RealVector r) {
  DenseLU<Real>(j).solveInPlace(r);
  return maxAbs(r);
}

/// Distance of x from the DC point at time t: f(x, t) = 0, J = G.
inline Real dcDistance(const MnaSystem& sys, const RealVector& x,
                       Real t = 0.0) {
  RealVector f;
  RealMatrix g;
  sys.evalDense(x, t, &f, nullptr, &g, nullptr, {});
  return newtonDistance(g, f);
}

/// Distance of x from the solution of one implicit step landing at time t:
///   f(x, t) + a q(x) + rhsQ = 0,   J = G + a C,
/// with BE a = 1/h, rhsQ = -q_prev/h; trapezoidal a = 2/h,
/// rhsQ = -2 q_prev/h - qd_prev. `q` (optional) receives q(x).
inline Real stepDistance(const MnaSystem& sys, const RealVector& x, Real t,
                         Real a, std::span<const Real> rhsQ,
                         RealVector* q = nullptr) {
  RealVector f, qx;
  RealMatrix g, c;
  sys.evalDense(x, t, &f, &qx, &g, &c, {});
  for (size_t i = 0; i < f.size(); ++i) {
    f[i] += a * qx[i] + rhsQ[i];
    for (size_t j = 0; j < f.size(); ++j) g(i, j) += a * c(i, j);
  }
  if (q) *q = std::move(qx);
  return newtonDistance(g, std::move(f));
}

/// Largest stepDistance along a backward-Euler trajectory: step k goes from
/// states[k-1] to states[k] with h = times[k] - times[k-1].
inline Real beTrajectoryDistance(const MnaSystem& sys,
                                 std::span<const Real> times,
                                 std::span<const RealVector> states) {
  RealVector qPrev, rhsQ(sys.size());
  sys.evalDense(states[0], times[0], nullptr, &qPrev, nullptr, nullptr, {});
  Real worst = 0.0;
  for (size_t k = 1; k < states.size(); ++k) {
    const Real h = times[k] - times[k - 1];
    for (size_t i = 0; i < rhsQ.size(); ++i) rhsQ[i] = -qPrev[i] / h;
    worst = std::max(worst, stepDistance(sys, states[k], times[k], 1.0 / h,
                                         rhsQ, &qPrev));
  }
  return worst;
}

}  // namespace psmn::oracle
