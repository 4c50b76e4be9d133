// Sparse LU factorization: left-looking Gilbert–Peierls with threshold
// partial pivoting (threshold 0.1) and the AMD fill-reducing column
// pre-ordering (numeric/ordering.hpp). This is the Newton kernels' solver
// at every circuit size; the tests check what they return against DenseLU
// (tests/dense_oracle.hpp).
//
// Designed around the transient engine's access pattern:
//   * factor() once does the symbolic work (column ordering, pivot
//     sequence, fill pattern);
//   * refactor() renumbers the same pattern for a matrix with identical
//     structure but new values (every Newton iteration / time step),
//     allocation-free, falling back to a full factor() when a kept pivot
//     goes bad;
//   * solveInPlace()/solveManyInPlace() reuse member scratch so repeated
//     solves (multi-RHS sensitivity columns) never touch the heap.
//
// Every substitution, blocked or single-column, forward or transposed,
// takes its pivot step through one kernel (numeric/lu_block.hpp): a real
// pivot divides, a complex pivot multiplies by its reciprocal, formed once
// per pivot row (std::complex division is a libgcc call per entry). So
// the blocked and single-column solves agree bit for bit, and a complex
// solve sits within a few ulps of the true-division one.
//
// Thread safety: the scratch-less const solve methods mutate member
// scratch and stay single-threaded per object. The LuSolveScratch
// overloads touch only the (read-only) factorization, the RHS, and the
// caller's scratch — the parallel sensitivity engine partitions RHS
// columns across threads against one shared factorization this way, one
// scratch per thread. factor()/refactor() remain exclusive.
#pragma once

#include <span>
#include <vector>

#include "numeric/sparse_matrix.hpp"

namespace psmn {

template <class T>
class SparseLU {
 public:
  SparseLU() = default;

  explicit SparseLU(const SparseMatrix<T>& a) { factor(a); }

  /// Symbolic + numeric factorization: orders the columns by amdOrder on
  /// A's pattern, then eliminates with threshold partial pivoting, keeping
  /// the diagonal while it is at least 0.1 of its column's largest
  /// candidate (SPICE-style; 1.0 would be full partial pivoting).
  /// refactor() reuses the column order, pivot sequence and fill pattern.
  void factor(const SparseMatrix<T>& a);

  /// Numeric-only refactorization: reuses the pivot sequence, column order,
  /// and fill pattern of the last factor(). `a` must have the same sparsity
  /// pattern as the matrix passed to factor(). Returns false (leaving the
  /// factorization invalid) when a reused pivot fails the relative pivot
  /// check — the caller should then do a full factor(). `pivotTol` guards
  /// against kept pivots that the new values have demoted: a pivot below
  /// pivotTol * (column max) means the old pivot order is no longer
  /// trustworthy (values drifted far, e.g. a DC homotopy rung), and
  /// accepting it would poison the factorization.
  bool refactor(const SparseMatrix<T>& a, double pivotTol = 1e-3);

  std::vector<T> solve(std::span<const T> b) const;
  void solveInPlace(std::span<T> b) const;
  /// Concurrently callable variant: uses the caller's scratch instead of
  /// the member buffers (one scratch per thread).
  void solveInPlace(std::span<T> b, LuSolveScratch<T>& scratch) const;

  /// Batched solve of `nrhs` right-hand sides stored column-major in `b`
  /// (column r occupies b[r*n .. r*n + n-1]); one traversal of the L/U
  /// pattern serves all columns. The block stays column-major at this
  /// interface; for nrhs > 1 it is copied RHS-interleaved into n*nrhs
  /// scratch (row i of every column contiguous), so each L/U entry updates
  /// one contiguous row of all columns. Per column the operations and
  /// their order are solveInPlace's (less its skips of exact zeros), so
  /// the values match it exactly. nrhs == 1 is solveInPlace.
  void solveManyInPlace(std::span<T> b, size_t nrhs) const;
  /// Concurrently callable variant (see solveInPlace above). Chunking a
  /// column block across threads is bit-identical to one batched call:
  /// every column's arithmetic involves only that column.
  void solveManyInPlace(std::span<T> b, size_t nrhs,
                        LuSolveScratch<T>& scratch) const;

  /// Solves A^T x = b (plain transpose; for complex T this is A^T, not
  /// A^H, like DenseLU::solveTransposed; the transposed LPTV sweeps and
  /// the PPV sweep use it). The transposed substitution gathers
  /// instead of scattering, so it reuses the same stored L/U pattern.
  std::vector<T> solveTransposed(std::span<const T> b) const;
  void solveTransposedInPlace(std::span<T> b) const;
  /// Concurrently callable variant (see solveInPlace above).
  void solveTransposedInPlace(std::span<T> b, LuSolveScratch<T>& scratch) const;

  /// Batched transposed solve of `nrhs` right-hand sides that arrive and
  /// leave RHS-interleaved (row i of every column at b[i*nrhs ..
  /// i*nrhs + nrhs-1]), on the caller's scratch: solveManyInPlace's blocked
  /// substitution, transposed, with rows permuted but no column-major
  /// copy in or out, so a recursion can keep its block interleaved from
  /// step to step. Per column the values are solveTransposedInPlace's, and
  /// chunking a column block across threads is bit-identical to one
  /// batched call. nrhs == 1 is solveTransposedInPlace.
  void solveTransposedInterleavedInPlace(std::span<T> b, size_t nrhs,
                                         LuSolveScratch<T>& scratch) const;

  size_t size() const { return n_; }
  bool factored() const { return n_ > 0 && valid_; }
  size_t factorNonZeros() const { return lVal_.size() + uVal_.size(); }

 private:
  size_t n_ = 0;
  bool valid_ = false;
  size_t patternNnz_ = 0;  // nnz of the matrix factor() consumed
  // L (unit diagonal implicit) and U in CSC, column by column. U columns are
  // sorted ascending by permuted row index so the diagonal sits last and
  // refactor() can replay the left-looking updates in elimination order.
  std::vector<int> lPtr_, lIdx_;
  std::vector<T> lVal_;
  std::vector<int> uPtr_, uIdx_;
  std::vector<T> uVal_;
  std::vector<int> rowPerm_;     // rowPerm_[original row] = permuted row
  std::vector<int> permRow_;     // inverse: permuted row -> original row
  std::vector<int> colOrder_;    // column elimination order
  std::vector<int> invColOrder_; // inverse of colOrder_
  // Scratch reused across refactor/solve calls (kept zeroed between uses).
  // work_ backs refactor() (exclusive); scratch_ backs the scratch-less
  // const solves, which are therefore not concurrently callable.
  mutable std::vector<T> work_;
  mutable LuSolveScratch<T> scratch_;
};

}  // namespace psmn
