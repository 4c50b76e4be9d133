#include "rf/ppv.hpp"

#include <cmath>

#include "numeric/dense_lu.hpp"
#include "rf/step_factors.hpp"

namespace psmn {

PpvResult computePpv(const MnaSystem& sys, const PssResult& pss) {
  PSMN_CHECK(pss.autonomous && pss.phaseIndex >= 0 && !pss.dxdT.empty(),
             "computePpv needs an autonomous PSS result");
  const size_t n = sys.size();
  const size_t m = pss.stepCount();
  const Real h = pss.stepSize();
  // J_k = G_k + C_k/h for every step, factored once: the monodromy sweep
  // and the backward sweep below share them.
  const StepFactors<Real> steps(pss.gSpMats, pss.cSpMats, h, 1.0 / h);
  const RealMatrix phi = sweepMonodromy(steps, nullptr);

  // Transposed bordered system:
  //   [ (Phi - I)^T  e_p ] [w_x]   [0]
  //   [ dxdT^T       0   ] [w_T] = [1]
  RealMatrix a(n + 1, n + 1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = phi(j, i);
    a(i, i) -= 1.0;
  }
  for (size_t j = 0; j < n; ++j) a(n, j) = pss.dxdT[j];  // row n: dxdT^T
  a(pss.phaseIndex, n) = 1.0;                            // column n: e_phase

  RealVector rhs(n + 1, 0.0);
  rhs[n] = 1.0;
  DenseLU<Real> lu(a);
  const RealVector w = lu.solve(rhs);

  PpvResult res;
  res.wx.assign(w.begin(), w.begin() + n);
  res.wT = w[n];

  // Backward sweep: y_M = w_x; z_k = J_k^{-T} y_k; y_{k-1} = D_k^T z_k, the
  // transposed solves gathering over the kept pattern.
  res.z.assign(m + 1, RealVector());
  RealVector y = res.wx;
  LuSolveScratch<Real> scratch;
  for (size_t k = m; k >= 1; --k) {
    res.z[k] = y;
    steps.solveTransposedInPlace(k, res.z[k], 1, scratch);
    steps.applyDT(k, res.z[k].data(), y.data(), 1);
  }
  return res;
}

Real PpvResult::periodSensitivity(const MnaSystem& sys, const PssResult& pss,
                                  const InjectionSource& src) const {
  const size_t m = pss.stepCount();
  const Real h = pss.stepSize();
  RealVector bf, bq, bqPrev;
  sys.evalInjection(src, pss.states[0], pss.times[0], nullptr, &bqPrev);
  Real acc = 0.0;
  for (size_t k = 1; k <= m; ++k) {
    sys.evalInjection(src, pss.states[k], pss.times[k], &bf, &bq);
    const RealVector& zk = z[k];
    for (size_t i = 0; i < zk.size(); ++i) {
      acc += zk[i] * (bf[i] + (bq[i] - bqPrev[i]) / h);
    }
    bqPrev = bq;
  }
  // dT/dp = w_x^T dx(T)/dp = sum_k z_k^T g_k (signs: the BE recursion for
  // the forward sensitivity is J_k s_k = D_k s_{k-1} - g_k, and
  // dT/dp = -w_x^T s_M).
  return acc;
}

Real PpvResult::frequencySensitivity(const MnaSystem& sys,
                                     const PssResult& pss,
                                     const InjectionSource& src) const {
  const Real f0 = 1.0 / pss.period;
  return -f0 * f0 * periodSensitivity(sys, pss, src);
}

}  // namespace psmn
