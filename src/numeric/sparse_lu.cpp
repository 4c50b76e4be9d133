#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/lu_block.hpp"
#include "numeric/ordering.hpp"
#include "util/fault_injection.hpp"
#include "util/telemetry.hpp"

namespace psmn {
namespace {

// Threshold partial pivoting: the diagonal stays the pivot while it is at
// least this fraction of its column's largest candidate.
constexpr double kPivotThreshold = 0.1;

}  // namespace

template <class T>
void SparseLU<T>::factor(const SparseMatrix<T>& a) {
  PSMN_CHECK(a.rows() == a.cols(), "sparse LU requires a square matrix");
  if (faultShouldFire("sparse_lu.factor")) {
    valid_ = false;
    throw NumericalError("sparse LU: injected pivot failure");
  }
  valid_ = false;
  n_ = a.rows();
  patternNnz_ = a.nonZeros();
  const auto aPtr = a.colPointers();
  const auto aIdx = a.rowIndices();
  const auto aVal = a.values();

  colOrder_ = amdOrder(n_, aPtr, aIdx);
  invColOrder_.assign(n_, 0);
  for (size_t k = 0; k < n_; ++k) invColOrder_[colOrder_[k]] = static_cast<int>(k);

  rowPerm_.assign(n_, -1);  // original row -> permuted position
  permRow_.assign(n_, -1);  // permuted position -> original row

  lPtr_.assign(1, 0);
  uPtr_.assign(1, 0);
  lIdx_.clear(); lVal_.clear();
  uIdx_.clear(); uVal_.clear();

  // Dense workspace for the current column (Gilbert–Peierls sparse solve
  // would use DFS reachability; for MNA sizes the dense-column variant is
  // simpler and still O(nnz) per column in practice).
  std::vector<T> work(n_, T{});
  std::vector<char> mark(n_, 0);
  std::vector<int> pattern;
  pattern.reserve(n_);
  std::vector<std::pair<int, T>> ucol;  // U entries of the current column

  for (size_t kcol = 0; kcol < n_; ++kcol) {
    const int j = colOrder_[kcol];
    // Scatter column j of A into the workspace (in original row indices).
    pattern.clear();
    for (int p = aPtr[j]; p < aPtr[j + 1]; ++p) {
      work[aIdx[p]] = aVal[p];
      if (!mark[aIdx[p]]) {
        mark[aIdx[p]] = 1;
        pattern.push_back(aIdx[p]);
      }
    }
    // Left-looking update: apply previously computed L columns, in
    // elimination order, for every *structurally* reachable upper entry of
    // this column. Numerically-zero U entries still propagate their L
    // pattern so the stored fill pattern is value-independent and
    // refactor() can replay it with different numbers.
    for (size_t t = 0; t < kcol; ++t) {
      const int prow = permRow_[t];  // original row eliminated at step t
      if (!mark[prow]) continue;
      const T ujt = work[prow];  // value of U(t, kcol)
      // work -= ujt * L(:, t)
      for (int p = lPtr_[t]; p < lPtr_[t + 1]; ++p) {
        const int r = lIdx_[p];
        if (!mark[r]) {
          mark[r] = 1;
          pattern.push_back(r);
        }
        work[r] -= ujt * lVal_[p];
      }
    }
    // Choose pivot among not-yet-eliminated rows with threshold pivoting.
    double maxMag = 0.0;
    for (int r : pattern) {
      if (rowPerm_[r] >= 0) continue;
      maxMag = std::max(maxMag, std::abs(work[r]));
    }
    if (maxMag == 0.0) {
      throw NumericalError("sparse LU: structurally/numerically singular at column " +
                           std::to_string(j));
    }
    int pivotRow = -1;
    double pivotMag = -1.0;
    // Prefer the diagonal entry when it passes the threshold test.
    if (rowPerm_[j] < 0 && mark[j] &&
        std::abs(work[j]) >= kPivotThreshold * maxMag && work[j] != T{}) {
      pivotRow = j;
      pivotMag = std::abs(work[j]);
    } else {
      for (int r : pattern) {
        if (rowPerm_[r] >= 0) continue;
        const double mag = std::abs(work[r]);
        if (mag > pivotMag) {
          pivotMag = mag;
          pivotRow = r;
        }
      }
    }
    PSMN_CHECK(pivotRow >= 0, "sparse LU: no pivot candidate");
    const T pivot = work[pivotRow];
    rowPerm_[pivotRow] = static_cast<int>(kcol);
    permRow_[kcol] = pivotRow;

    // Emit U entries (rows already eliminated) and L entries (the rest).
    // Exact numeric zeros are kept: the pattern must cover every position a
    // refactor() with different values could fill.
    ucol.clear();
    for (int r : pattern) {
      const T v = work[r];
      work[r] = T{};
      mark[r] = 0;
      if (rowPerm_[r] >= 0 && rowPerm_[r] < static_cast<int>(kcol)) {
        ucol.emplace_back(rowPerm_[r], v);
      } else if (r == pivotRow) {
        // diagonal of U, appended after the sort below
      } else {
        lIdx_.push_back(r);  // keep original row index for L
        lVal_.push_back(v / pivot);
      }
    }
    // U column sorted ascending by permuted row so refactor() replays the
    // updates in elimination order; the diagonal (largest index) sits last.
    std::sort(ucol.begin(), ucol.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [row, v] : ucol) {
      uIdx_.push_back(row);
      uVal_.push_back(v);
    }
    uIdx_.push_back(static_cast<int>(kcol));
    uVal_.push_back(pivot);
    lPtr_.push_back(static_cast<int>(lIdx_.size()));
    uPtr_.push_back(static_cast<int>(uIdx_.size()));
  }
  valid_ = true;
  telemetryCount(Counter::kSparseFactors);
  telemetryCount(Counter::kFactorNnzTotal, lVal_.size() + uVal_.size());
}

template <class T>
bool SparseLU<T>::refactor(const SparseMatrix<T>& a, double pivotTol) {
  // !valid_ also covers a factor() that threw mid-build: its partially
  // constructed pattern must not be replayed.
  if (n_ == 0 || !valid_ || a.rows() != n_ || a.cols() != n_ ||
      a.nonZeros() != patternNnz_) {
    valid_ = false;
    return false;
  }
  if (faultShouldFire("sparse_lu.refactor")) {
    // An injected kept-pivot breakdown: report it exactly like an organic
    // one so the caller's full-factor fallback path is exercised.
    valid_ = false;
    return false;
  }
  const auto aPtr = a.colPointers();
  const auto aIdx = a.rowIndices();
  const auto aVal = a.values();
  work_.assign(n_, T{});

  for (size_t kcol = 0; kcol < n_; ++kcol) {
    const int j = colOrder_[kcol];
    for (int p = aPtr[j]; p < aPtr[j + 1]; ++p) work_[aIdx[p]] = aVal[p];

    const int ubeg = uPtr_[kcol];
    const int uend = uPtr_[kcol + 1] - 1;  // diagonal stored last
    for (int p = ubeg; p < uend; ++p) {
      const int t = uIdx_[p];
      const T ujt = work_[permRow_[t]];
      uVal_[p] = ujt;
      if (ujt == T{}) continue;
      for (int lp = lPtr_[t]; lp < lPtr_[t + 1]; ++lp) {
        work_[lIdx_[lp]] -= lVal_[lp] * ujt;
      }
    }
    const int pivotRow = permRow_[kcol];
    const T pivot = work_[pivotRow];
    // The kept pivot must not have collapsed relative to the remaining
    // candidates in its column; `!(.. > ..)` also rejects NaN.
    double colMax = std::abs(pivot);
    for (int lp = lPtr_[kcol]; lp < lPtr_[kcol + 1]; ++lp) {
      colMax = std::max(colMax, std::abs(work_[lIdx_[lp]]));
    }
    if (!(std::abs(pivot) > pivotTol * colMax) || pivot == T{}) {
      work_.assign(n_, T{});
      valid_ = false;
      return false;
    }
    uVal_[uend] = pivot;
    for (int lp = lPtr_[kcol]; lp < lPtr_[kcol + 1]; ++lp) {
      lVal_[lp] = work_[lIdx_[lp]] / pivot;
    }
    // Clear exactly the positions this column touched (its structural
    // closure: A-scatter and L-update targets all land in U, L, or the
    // pivot), leaving work_ all-zero for the next column.
    for (int p = ubeg; p <= uend; ++p) work_[permRow_[uIdx_[p]]] = T{};
    for (int lp = lPtr_[kcol]; lp < lPtr_[kcol + 1]; ++lp) {
      work_[lIdx_[lp]] = T{};
    }
  }
  valid_ = true;
  telemetryCount(Counter::kSparseRefactors);
  telemetryCount(Counter::kFactorNnzTotal, lVal_.size() + uVal_.size());
  return true;
}

template <class T>
void SparseLU<T>::solveInPlace(std::span<T> b) const {
  solveInPlace(b, scratch_);
}

template <class T>
void SparseLU<T>::solveInPlace(std::span<T> b,
                               LuSolveScratch<T>& scratch) const {
  PSMN_CHECK(b.size() == n_, "sparse LU solve: rhs size mismatch");
  PSMN_CHECK(valid_, "sparse LU solve: not factored");
  telemetryCount(Counter::kSolveColumns);
  std::vector<T>& solveRhs_ = scratch.rhs;
  std::vector<T>& solveX_ = scratch.x;
  solveRhs_.assign(b.begin(), b.end());
  solveX_.assign(n_, T{});
  // Forward solve L y = P b, with L unit-diagonal; L columns carry original
  // row indices, so updates scatter into the (still original-indexed) rhs.
  for (size_t t = 0; t < n_; ++t) {
    const T yt = solveRhs_[permRow_[t]];
    solveX_[t] = yt;
    if (yt == T{}) continue;
    for (int p = lPtr_[t]; p < lPtr_[t + 1]; ++p) {
      solveRhs_[lIdx_[p]] -= lVal_[p] * yt;
    }
  }
  // Column-oriented backward substitution: process columns from last to
  // first; after dividing by the diagonal (detail::divideRow, the blocked
  // path's pivot step), scatter updates to earlier rows.
  for (size_t tt = n_; tt-- > 0;) {
    const int diagPos = uPtr_[tt + 1] - 1;
    detail::divideRow(&solveX_[tt], uVal_[diagPos], 1);
    const T xt = solveX_[tt];
    if (xt == T{}) continue;
    for (int p = uPtr_[tt]; p < diagPos; ++p) {
      solveX_[uIdx_[p]] -= uVal_[p] * xt;
    }
  }
  // Un-permute columns: elimination step t corresponds to original column
  // colOrder_[t].
  for (size_t t = 0; t < n_; ++t) b[colOrder_[t]] = solveX_[t];
}

template <class T>
void SparseLU<T>::solveManyInPlace(std::span<T> b, size_t nrhs) const {
  solveManyInPlace(b, nrhs, scratch_);
}

template <class T>
void SparseLU<T>::solveManyInPlace(std::span<T> b, size_t nrhs,
                                   LuSolveScratch<T>& scratch) const {
  PSMN_CHECK(b.size() == n_ * nrhs, "sparse LU solve: rhs block size mismatch");
  PSMN_CHECK(valid_, "sparse LU solve: not factored");
  if (nrhs == 0) return;
  if (nrhs == 1) {
    solveInPlace(b, scratch);
    return;
  }
  telemetryCount(Counter::kSolveColumns, nrhs);
  // RHS-interleaved blocks (see numeric/lu_block.hpp); per column this is
  // solveInPlace's substitution without its skips of exact-zero values,
  // which cannot change a finite result.
  const size_t m = nrhs;
  scratch.rhs.resize(n_ * m);
  scratch.x.resize(n_ * m);
  T* rhs = scratch.rhs.data();
  T* x = scratch.x.data();
  detail::interleaveBlock<T>(b, n_, m, rhs);
  // Forward solve: one traversal of each L column updates every RHS.
  for (size_t t = 0; t < n_; ++t) {
    T* xt = x + t * m;
    const T* src = rhs + static_cast<size_t>(permRow_[t]) * m;
    std::copy(src, src + m, xt);
    for (int p = lPtr_[t]; p < lPtr_[t + 1]; ++p) {
      detail::subtractScaledRow(rhs + static_cast<size_t>(lIdx_[p]) * m, xt,
                                lVal_[p], m);
    }
  }
  // Backward substitution, again amortizing the pattern walk over all RHS.
  for (size_t tt = n_; tt-- > 0;) {
    const int diagPos = uPtr_[tt + 1] - 1;
    T* xt = x + tt * m;
    detail::divideRow(xt, uVal_[diagPos], m);
    for (int p = uPtr_[tt]; p < diagPos; ++p) {
      detail::subtractScaledRow(x + static_cast<size_t>(uIdx_[p]) * m, xt,
                                uVal_[p], m);
    }
  }
  detail::deinterleaveBlock<T>(x, n_, m, colOrder_.data(), b);
}

template <class T>
void SparseLU<T>::solveTransposedInPlace(std::span<T> b) const {
  solveTransposedInPlace(b, scratch_);
}

template <class T>
void SparseLU<T>::solveTransposedInPlace(std::span<T> b,
                                         LuSolveScratch<T>& scratch) const {
  PSMN_CHECK(b.size() == n_, "sparse LU solveT: rhs size mismatch");
  PSMN_CHECK(valid_, "sparse LU solveT: not factored");
  telemetryCount(Counter::kSolveColumns);
  // With A^{-1} = Q U^{-1} L^{-1} P (see solveInPlace), the transposed
  // solve is A^{-T} = P^T L^{-T} U^{-T} Q^T. Both triangular passes turn
  // into gathers over the stored CSC columns: a column of U (resp. L) is a
  // row of U^T (resp. L^T), so no scatter scratch is needed.
  std::vector<T>& solveX_ = scratch.x;
  solveX_.resize(n_);
  for (size_t t = 0; t < n_; ++t) solveX_[t] = b[colOrder_[t]];
  // Forward solve U^T w = z: column t of U holds U(t', t), t' < t, with the
  // diagonal stored last.
  for (size_t t = 0; t < n_; ++t) {
    const int diagPos = uPtr_[t + 1] - 1;
    T acc = solveX_[t];
    for (int p = uPtr_[t]; p < diagPos; ++p) acc -= uVal_[p] * solveX_[uIdx_[p]];
    solveX_[t] = acc;
    detail::divideRow(&solveX_[t], uVal_[diagPos], 1);
  }
  // Backward solve L^T v = w (unit diagonal): column t of L holds entries at
  // original rows r that are eliminated later (rowPerm_[r] > t).
  for (size_t tt = n_; tt-- > 0;) {
    T acc = solveX_[tt];
    for (int p = lPtr_[tt]; p < lPtr_[tt + 1]; ++p) {
      acc -= lVal_[p] * solveX_[rowPerm_[lIdx_[p]]];
    }
    solveX_[tt] = acc;
  }
  for (size_t t = 0; t < n_; ++t) b[permRow_[t]] = solveX_[t];
}

template <class T>
void SparseLU<T>::solveTransposedInterleavedInPlace(
    std::span<T> b, size_t nrhs, LuSolveScratch<T>& scratch) const {
  PSMN_CHECK(b.size() == n_ * nrhs,
             "sparse LU solveT: rhs block size mismatch");
  PSMN_CHECK(valid_, "sparse LU solveT: not factored");
  if (nrhs == 0) return;
  if (nrhs == 1) {
    solveTransposedInPlace(b, scratch);
    return;
  }
  telemetryCount(Counter::kSolveColumns, nrhs);
  // The substitution of solveTransposedInPlace, one interleaved row of all
  // m columns per step: permuted row t is row colOrder_[t] of b.
  const size_t m = nrhs;
  scratch.x.resize(n_ * m);
  T* x = scratch.x.data();
  for (size_t t = 0; t < n_; ++t) {
    const T* row = b.data() + static_cast<size_t>(colOrder_[t]) * m;
    std::copy(row, row + m, x + t * m);
  }
  // One traversal of each U (then L) column serves every right-hand side.
  for (size_t t = 0; t < n_; ++t) {
    const int diagPos = uPtr_[t + 1] - 1;
    T* xt = x + t * m;
    for (int p = uPtr_[t]; p < diagPos; ++p) {
      detail::subtractScaledRow(xt, x + static_cast<size_t>(uIdx_[p]) * m,
                                uVal_[p], m);
    }
    detail::divideRow(xt, uVal_[diagPos], m);
  }
  for (size_t tt = n_; tt-- > 0;) {
    T* xt = x + tt * m;
    for (int p = lPtr_[tt]; p < lPtr_[tt + 1]; ++p) {
      const auto row = static_cast<size_t>(rowPerm_[lIdx_[p]]);
      detail::subtractScaledRow(xt, x + row * m, lVal_[p], m);
    }
  }
  for (size_t t = 0; t < n_; ++t) {
    const T* xt = x + t * m;
    std::copy(xt, xt + m, b.data() + static_cast<size_t>(permRow_[t]) * m);
  }
}

template <class T>
std::vector<T> SparseLU<T>::solveTransposed(std::span<const T> b) const {
  std::vector<T> x(b.begin(), b.end());
  solveTransposedInPlace(x);
  return x;
}

template <class T>
std::vector<T> SparseLU<T>::solve(std::span<const T> b) const {
  std::vector<T> x(b.begin(), b.end());
  solveInPlace(x);
  return x;
}

template class SparseLU<Real>;
template class SparseLU<Cplx>;

}  // namespace psmn
