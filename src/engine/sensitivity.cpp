#include "engine/sensitivity.hpp"

#include "numeric/dense_lu.hpp"

namespace psmn {

RealVector solveDcSensitivity(const MnaSystem& sys, std::span<const Real> xop,
                              int outIndex,
                              std::span<const InjectionSource> sources) {
  PSMN_CHECK(outIndex >= 0 && outIndex < static_cast<int>(sys.size()),
             "bad output index");
  RealMatrix g;
  sys.evalDense(xop, 0.0, nullptr, nullptr, &g, nullptr);
  DenseLU<Real> lu(g);

  RealVector eout(sys.size(), 0.0);
  eout[outIndex] = 1.0;
  const RealVector lambda = lu.solveTransposed(eout);

  RealVector out;
  out.reserve(sources.size());
  RealVector bf;
  for (const auto& src : sources) {
    sys.evalInjection(src, xop, 0.0, &bf, nullptr);
    Real s = 0.0;
    for (size_t i = 0; i < bf.size(); ++i) s += lambda[i] * bf[i];
    out.push_back(-s);
  }
  return out;
}

RealVector solveDcSensitivityDirect(const MnaSystem& sys,
                                    std::span<const Real> xop, int outIndex,
                                    std::span<const InjectionSource> sources) {
  PSMN_CHECK(outIndex >= 0 && outIndex < static_cast<int>(sys.size()),
             "bad output index");
  RealMatrix g;
  sys.evalDense(xop, 0.0, nullptr, nullptr, &g, nullptr);
  DenseLU<Real> lu(g);

  RealVector out;
  out.reserve(sources.size());
  RealVector bf;
  for (const auto& src : sources) {
    sys.evalInjection(src, xop, 0.0, &bf, nullptr);
    for (Real& v : bf) v = -v;
    const RealVector dx = lu.solve(bf);
    out.push_back(dx[outIndex]);
  }
  return out;
}

}  // namespace psmn
