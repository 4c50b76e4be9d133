// Sparse matrix support: a triplet (COO) accumulator that MNA assembly
// writes into, and a compressed-sparse-column (CSC) form consumed by the
// sparse LU factorization.
//
// Duplicate triplet entries are summed, matching how device stamps
// accumulate conductances onto shared matrix positions.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "numeric/dense_matrix.hpp"
#include "numeric/types.hpp"

namespace psmn {

template <class T>
struct Triplet {
  int row = 0;
  int col = 0;
  T value{};
};

template <class T>
class SparseMatrix {
 public:
  SparseMatrix() = default;
  SparseMatrix(size_t rows, size_t cols) : rows_(rows), cols_(cols) {}

  /// Builds CSC from triplets, summing duplicates.
  static SparseMatrix fromTriplets(size_t rows, size_t cols,
                                   std::span<const Triplet<T>> triplets);

  static SparseMatrix fromDense(const Matrix<T>& dense, double dropTol = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nonZeros() const { return values_.size(); }

  std::span<const int> colPointers() const { return colPtr_; }
  std::span<const int> rowIndices() const { return rowIdx_; }
  std::span<const T> values() const { return values_; }
  std::span<T> values() { return values_; }

  /// Pointer to the stored value at (row, col), or nullptr when the
  /// position is not part of the sparsity pattern. Branch-light binary
  /// search within the column (row indices are kept sorted per column);
  /// inline because the MNA assembly path calls it for every device stamp.
  T* find(int row, int col) {
    if (row < 0 || col < 0 || static_cast<size_t>(col) >= cols_) {
      return nullptr;
    }
    const int* base = rowIdx_.data() + colPtr_[col];
    size_t len = static_cast<size_t>(colPtr_[col + 1] - colPtr_[col]);
    while (len > 1) {
      const size_t half = len / 2;
      base += (base[half - 1] < row) ? half : 0;
      len -= half;
    }
    if (len == 0 || *base != row) return nullptr;
    return values_.data() + (base - rowIdx_.data());
  }
  const T* find(int row, int col) const {
    return const_cast<SparseMatrix*>(this)->find(row, col);
  }

  /// Zeroes the stored values, keeping the pattern. Used to reset a cached
  /// assembly pattern before re-stamping.
  void zeroValues() { std::fill(values_.begin(), values_.end(), T{}); }

  /// y = A x.
  std::vector<T> multiply(std::span<const T> x) const;

  /// y = A x into caller storage (no allocation).
  void multiplyInto(std::span<const T> x, std::span<T> y) const;

  Matrix<T> toDense() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<int> colPtr_;  // size cols+1
  std::vector<int> rowIdx_;  // size nnz, sorted within each column
  std::vector<T> values_;    // size nnz
};

using RealSparse = SparseMatrix<Real>;
using CplxSparse = SparseMatrix<Cplx>;

/// Merges the patterns of two same-shape matrices into `out` (values
/// zeroed) and fills the scatter maps from each input's value slots into
/// `out`'s, so callers can re-assemble `out = f(a, b)` allocation-free:
///   outVals[aToOut[p]] += aVals[p]; outVals[bToOut[p]] += coef*bVals[p].
/// Shared by the transient workspace's Jacobian (J = G + a*C), the LPTV
/// step matrices (K = G + (1/h + jw) C), and the PPV backward sweep.
template <class T, class U>
void mergeSparsePatterns(const SparseMatrix<U>& a, const SparseMatrix<U>& b,
                         SparseMatrix<T>& out, std::vector<int>& aToOut,
                         std::vector<int>& bToOut);

/// Cached-pattern assembler for the ubiquitous `M = A + coef*B` stamp over
/// two same-shape sparse inputs (transient Jacobian J = G + a*C, LPTV step
/// matrix K = G + (1/h + jw)*C, PPV sweep J = G + C/h). The first call
/// merges the two patterns and builds the scatter maps; later calls
/// re-stamp into that merged pattern without allocating, so a factorization
/// of `matrix` stays refactorable. The inputs must keep their patterns --
/// those of one MnaSystem do, being frozen at construction -- and an input
/// whose nonzero count differs from the first call's is rejected.
template <class T>
struct MergedSparseAssembler {
  SparseMatrix<T> matrix;

  /// Stamps matrix = a + coef*b. Throws Error when a or b is not on the
  /// pattern the first call merged.
  void assemble(const SparseMatrix<Real>& a, const SparseMatrix<Real>& b,
                T coef) {
    if (matrix.cols() == 0) {
      mergeSparsePatterns(a, b, matrix, aMap_, bMap_);
    }
    PSMN_CHECK(a.nonZeros() == aMap_.size() && b.nonZeros() == bMap_.size(),
               "MergedSparseAssembler: input is not on the merged pattern");
    matrix.zeroValues();
    const auto av = a.values();
    const auto bv = b.values();
    const auto mv = matrix.values();
    for (size_t k = 0; k < av.size(); ++k) mv[aMap_[k]] += av[k];
    for (size_t k = 0; k < bv.size(); ++k) mv[bMap_[k]] += coef * bv[k];
  }

 private:
  std::vector<int> aMap_, bMap_;
};

}  // namespace psmn
