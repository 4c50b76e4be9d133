#include "rf/step_factors.hpp"

#include <algorithm>

#include "runtime/thread_pool.hpp"

namespace psmn {

template <class T>
StepFactors<T>::StepFactors(std::span<const RealSparse> g,
                            std::span<const RealSparse> c, Real h, T coef,
                            const SparseLU<T>* symbolic)
    : c_(c), invH_(1.0 / h) {
  PSMN_CHECK(g.size() == c.size() && g.size() >= 2,
             "step factors need the orbit's G_k and C_k at k = 0..M");
  const size_t m = g.size() - 1;
  lus_.resize(m);
  // Every orbit point carries the system's one declared pattern.
  MergedSparseAssembler<T> kAsm;
  for (size_t k = 1; k <= m; ++k) {
    kAsm.assemble(g[k], c[k], coef);
    SparseLU<T>& lu = lus_[k - 1];
    const SparseLU<T>* prev = k > 1 ? &lus_[k - 2] : symbolic;
    if (prev) lu = *prev;  // inherit the symbolic factorization
    if (!prev || !lu.refactor(kAsm.matrix)) {
      lu.factor(kAsm.matrix);
      ++factors_;
    }
  }
}

template <class T>
void StepFactors<T>::applyD(size_t k, std::span<const T> v,
                            std::span<T> out) const {
  const size_t n = v.size();
  std::fill(out.begin(), out.end(), T{});
  const RealSparse& c = c_[k - 1];
  const auto ptr = c.colPointers();
  const auto idx = c.rowIndices();
  const auto val = c.values();
  for (size_t j = 0; j < n; ++j) {
    const T xj = v[j];
    if (xj == T{}) continue;
    for (int p = ptr[j]; p < ptr[j + 1]; ++p) {
      out[idx[p]] += val[p] * invH_ * xj;
    }
  }
}

template <class T>
void StepFactors<T>::applyDT(size_t k, const T* v, T* out, size_t w) const {
  const RealSparse& c = c_[k - 1];
  const size_t n = c.cols();
  const auto ptr = c.colPointers();
  const auto idx = c.rowIndices();
  const auto val = c.values();
  // Row j of the product gathers column j of C_{k-1}: per column, a sum
  // from zero in pattern order, then the 1/h scale.
  for (size_t j = 0; j < n; ++j) {
    T* __restrict o = out + j * w;
    std::fill(o, o + w, T{});
    for (int p = ptr[j]; p < ptr[j + 1]; ++p) {
      const T* __restrict vr = v + static_cast<size_t>(idx[p]) * w;
      const Real a = val[p];
      for (size_t r = 0; r < w; ++r) o[r] += a * vr[r];
    }
    for (size_t r = 0; r < w; ++r) o[r] *= invH_;
  }
}

template class StepFactors<Real>;
template class StepFactors<Cplx>;

RealMatrix sweepMonodromy(const StepFactors<Real>& steps, ThreadPool* pool) {
  const size_t n = steps.size();
  const size_t m = steps.steps();
  std::vector<LuSolveScratch<Real>> scratch(columnBlockSlots(pool, n));
  RealVector x(n * n, 0.0), y(n * n);
  for (size_t j = 0; j < n; ++j) x[j * n + j] = 1.0;
  const auto none = [](auto&&...) {};
  forEachColumnBlock(pool, n, [&](size_t j0, size_t j1, size_t slot) {
    steps.carry(x.data() + j0 * n, y.data() + j0 * n, j1 - j0, m,
                scratch[slot], none, none);
  });
  const RealVector& xm = m % 2 == 0 ? x : y;
  RealMatrix phi(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) phi(i, j) = xm[j * n + i];
  }
  return phi;
}

}  // namespace psmn
