#include "numeric/dense_lu.hpp"

#include <algorithm>
#include <cmath>

#include "util/fault_injection.hpp"
#include "util/telemetry.hpp"

namespace psmn {

template <class T>
void DenseLU<T>::factor(const Matrix<T>& a) {
  PSMN_CHECK(a.rows() == a.cols(), "LU requires a square matrix");
  if (faultShouldFire("dense_lu.factor")) {
    throw NumericalError("dense LU: injected pivot failure");
  }
  const size_t n = a.rows();
  lu_ = a;
  perm_.resize(n);
  for (size_t i = 0; i < n; ++i) perm_[i] = static_cast<int>(i);

  for (size_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest magnitude entry in column k.
    size_t pivotRow = k;
    double best = std::abs(lu_(k, k));
    for (size_t i = k + 1; i < n; ++i) {
      const double mag = std::abs(lu_(i, k));
      if (mag > best) {
        best = mag;
        pivotRow = i;
      }
    }
    if (best == 0.0) {
      throw NumericalError("dense LU: singular matrix at column " +
                           std::to_string(k));
    }
    if (pivotRow != k) {
      std::swap(perm_[k], perm_[pivotRow]);
      for (size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(pivotRow, j));
    }
    const T pivot = lu_(k, k);
    for (size_t i = k + 1; i < n; ++i) {
      const T factor = lu_(i, k) / pivot;
      lu_(i, k) = factor;
      if (factor == T{}) continue;
      const auto krow = lu_.row(k);
      auto irow = lu_.row(i);
      for (size_t j = k + 1; j < n; ++j) irow[j] -= factor * krow[j];
    }
  }
  telemetryCount(Counter::kDenseFactors);
}

template <class T>
void DenseLU<T>::solveInPlace(std::span<T> b) const {
  solveInPlace(b, scratch_);
}

template <class T>
void DenseLU<T>::solveInPlace(std::span<T> b,
                              LuSolveScratch<T>& scratch) const {
  const size_t n = size();
  PSMN_CHECK(b.size() == n, "LU solve: rhs size mismatch");
  telemetryCount(Counter::kSolveColumns);
  // Apply permutation.
  scratch.x.resize(n);
  std::span<T> x = scratch.x;
  for (size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution (L has unit diagonal).
  for (size_t i = 1; i < n; ++i) {
    T acc = x[i];
    const auto irow = lu_.row(i);
    for (size_t j = 0; j < i; ++j) acc -= irow[j] * x[j];
    x[i] = acc;
  }
  // Backward substitution.
  for (size_t ii = n; ii-- > 0;) {
    T acc = x[ii];
    const auto irow = lu_.row(ii);
    for (size_t j = ii + 1; j < n; ++j) acc -= irow[j] * x[j];
    x[ii] = acc / irow[ii];
  }
  std::copy(x.begin(), x.end(), b.begin());
}

template <class T>
std::vector<T> DenseLU<T>::solve(std::span<const T> b) const {
  std::vector<T> x(b.begin(), b.end());
  solveInPlace(x);
  return x;
}

template <class T>
void DenseLU<T>::solveTransposedInPlace(std::span<T> b) const {
  solveTransposedInPlace(b, scratch_);
}

template <class T>
void DenseLU<T>::solveTransposedInPlace(std::span<T> b,
                                        LuSolveScratch<T>& scratch) const {
  // A = P^T L U  =>  A^T x = b  <=>  U^T L^T P x = b.
  const size_t n = size();
  PSMN_CHECK(b.size() == n, "LU solveT: rhs size mismatch");
  telemetryCount(Counter::kSolveColumns);
  std::vector<T>& x = scratch.x;
  x.assign(b.begin(), b.end());
  // Solve U^T y = b (U^T is lower triangular).
  for (size_t i = 0; i < n; ++i) {
    T acc = x[i];
    for (size_t j = 0; j < i; ++j) acc -= lu_(j, i) * x[j];
    x[i] = acc / lu_(i, i);
  }
  // Solve L^T z = y (L^T is upper triangular, unit diagonal).
  for (size_t ii = n; ii-- > 0;) {
    T acc = x[ii];
    for (size_t j = ii + 1; j < n; ++j) acc -= lu_(j, ii) * x[j];
    x[ii] = acc;
  }
  // x = P^T z: row perm_[i] of the original matrix became row i, so the
  // solution component perm_[i] receives z[i].
  for (size_t i = 0; i < n; ++i) b[perm_[i]] = x[i];
}

template <class T>
std::vector<T> DenseLU<T>::solveTransposed(std::span<const T> b) const {
  std::vector<T> x(b.begin(), b.end());
  solveTransposedInPlace(x);
  return x;
}

template <class T>
Matrix<T> DenseLU<T>::solveMatrix(const Matrix<T>& b) const {
  PSMN_CHECK(b.rows() == size(), "LU solveMatrix: shape mismatch");
  Matrix<T> x(b.rows(), b.cols());
  std::vector<T> col(b.rows());
  for (size_t j = 0; j < b.cols(); ++j) {
    for (size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    solveInPlace(col);
    for (size_t i = 0; i < b.rows(); ++i) x(i, j) = col[i];
  }
  return x;
}

template <class T>
std::vector<T> luSolve(const Matrix<T>& a, std::span<const T> b) {
  return DenseLU<T>(a).solve(b);
}

template class DenseLU<Real>;
template class DenseLU<Cplx>;
template std::vector<Real> luSolve(const Matrix<Real>&, std::span<const Real>);
template std::vector<Cplx> luSolve(const Matrix<Cplx>&, std::span<const Cplx>);

}  // namespace psmn
