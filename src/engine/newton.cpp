#include "engine/newton.hpp"

#include <algorithm>
#include <limits>

namespace psmn {

Real maxAbsVec(std::span<const Real> v) {
  Real m = 0.0;
  for (Real x : v) {
    if (!std::isfinite(x)) return std::numeric_limits<Real>::quiet_NaN();
    m = std::max(m, std::fabs(x));
  }
  return m;
}

void NewtonWorkspace::factor(const RealSparse& jac) {
  if (sluSymbolic && slu.refactor(jac)) {
    ++stats.refactorizations;
  } else {
    slu.factor(jac);
    sluSymbolic = true;
    ++stats.factorizations;
  }
  stats.factorNnz = slu.factorNonZeros();
}

void NewtonWorkspace::solve(std::span<Real> b, size_t cols) {
  slu.solveManyInPlace(b, cols);
  stats.solves += cols;
}

void NewtonWorkspace::countIteration() {
  ++stats.newtonIterations;
  telemetryCount(Counter::kNewtonIterations);
}

void NewtonWorkspace::recordFailure(const MnaSystem& sys, const char* analysis,
                                    std::string stage, int iteration,
                                    Real residualNorm,
                                    std::span<const Real> residual,
                                    bool nonFinite) {
  lastFailure = {};
  lastFailure.analysis = analysis;
  lastFailure.stage = std::move(stage);
  lastFailure.iteration = iteration;
  if (std::isfinite(residualNorm)) lastFailure.residual = residualNorm;
  lastFailure.suspectNodes = sys.suspectUnknowns(residual);
  lastFailure.injectedFault = lastFiredFaultSite();
  lastFailureNonFinite = nonFinite;
}

}  // namespace psmn
