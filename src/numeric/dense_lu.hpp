// Dense LU factorization with partial pivoting, over double or complex.
//
// The factorization object is reusable: factor once, solve many right-hand
// sides (the shooting and LPTV kernels rely on this heavily).
#pragma once

#include <span>
#include <vector>

#include "numeric/dense_matrix.hpp"

namespace psmn {

template <class T>
class DenseLU {
 public:
  DenseLU() = default;

  /// Factors A in place (a copy is taken). Throws NumericalError when the
  /// matrix is numerically singular.
  explicit DenseLU(const Matrix<T>& a) { factor(a); }

  void factor(const Matrix<T>& a);

  /// Solves A x = b.
  std::vector<T> solve(std::span<const T> b) const;
  void solveInPlace(std::span<T> b) const;
  /// Concurrently callable variant: uses the caller's scratch instead of
  /// the member buffer, so threads sharing one factorization may solve in
  /// parallel (one scratch per thread).
  void solveInPlace(std::span<T> b, LuSolveScratch<T>& scratch) const;

  /// Solves A^T x = b (plain transpose; for complex T this is A^T, not A^H —
  /// conjugate the RHS and the result to get an A^H solve).
  std::vector<T> solveTransposed(std::span<const T> b) const;
  void solveTransposedInPlace(std::span<T> b) const;
  /// Concurrently callable variant (see solveInPlace above).
  void solveTransposedInPlace(std::span<T> b, LuSolveScratch<T>& scratch) const;

  /// Solves A X = B for a full matrix of right-hand sides.
  Matrix<T> solveMatrix(const Matrix<T>& b) const;

  size_t size() const { return lu_.rows(); }
  bool factored() const { return !lu_.empty(); }

 private:
  Matrix<T> lu_;
  std::vector<int> perm_;
  // Member solve scratch, reused so repeated solves on a kept factorization
  // are allocation-free. Consequence: the scratch-less const solve methods
  // are not thread-safe per object — concurrent callers must pass their
  // own LuSolveScratch via the explicit overloads.
  mutable LuSolveScratch<T> scratch_;
};

/// Convenience one-shot solve.
template <class T>
std::vector<T> luSolve(const Matrix<T>& a, std::span<const T> b);

}  // namespace psmn
