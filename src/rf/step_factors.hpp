// The step operators of a stored periodic orbit, shared by shooting's
// monodromy, the PPV sweep and the LPTV recursions of rf/pnoise (internal to
// rf/).
//
// A backward-Euler orbit stores G_k and C_k at its grid points k = 0..M,
// step h. Every small-signal recursion on it runs over
//   K_k = G_k + coef C_k,   D_k = C_{k-1}/h,   k = 1..M.
// With coef = 1/h, K_k is the Jacobian J_k the period integration's Newton
// kernel factored, and the homogeneous recursion X_k = K_k^{-1} D_k X_{k-1}
// from X_0 = I ends in the monodromy Phi (sweepMonodromy); the PPV sweep
// and a driven orbit's LPTV (w = 0) run on these real factors too. With
// coef = 1/h + j w it is the LPTV step of an oscillator at offset w, the
// only complex instantiation.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "numeric/dense_matrix.hpp"
#include "numeric/sparse_lu.hpp"

namespace psmn {

class ThreadPool;  // runtime/thread_pool.hpp

/// K_k factored for every grid step k = 1..M, plus the couplings D_k. K is
/// assembled into one merged pattern (cached scatter maps, like the
/// transient workspace's Jacobian) and factored with SparseLU. Step 1
/// starts from `symbolic` when one is given (a factorization of the same
/// pattern: numeric refactor, full factor only when a kept pivot fails) and
/// factors otherwise; every later step inherits the previous step's
/// symbolic analysis through a copy + numeric refactor, so each step costs
/// O(fill). `g` and `c` (M + 1 matrices each) must outlive the store.
template <class T>
class StepFactors {
 public:
  StepFactors(std::span<const RealSparse> g, std::span<const RealSparse> c,
              Real h, T coef, const SparseLU<T>* symbolic = nullptr);

  size_t size() const { return lus_.front().size(); }
  size_t steps() const { return lus_.size(); }
  /// How the M steps were factored: full factorizations, numeric refactors.
  size_t factorizations() const { return factors_; }
  size_t refactorizations() const { return steps() - factors_; }

  // k = 1..M selects the step, matching the cyclic system indexing. The
  // block solves are concurrently callable: threads sharing step factor k
  // solve disjoint column blocks, one scratch per slot.
  void solveManyInPlace(size_t k, std::span<T> b, size_t nrhs,
                        LuSolveScratch<T>& scratch) const {
    lus_[k - 1].solveManyInPlace(b, nrhs, scratch);
  }
  /// K_k^{-T} on `w` RHS-interleaved columns: row i of every column at
  /// b[i*w .. i*w + w-1] (w == 1 is a plain vector).
  void solveTransposedInPlace(size_t k, std::span<T> b, size_t w,
                              LuSolveScratch<T>& scratch) const {
    lus_[k - 1].solveTransposedInterleavedInPlace(b, w, scratch);
  }

  /// out = D_k v = (C_{k-1} v) / h.
  void applyD(size_t k, std::span<const T> v, std::span<T> out) const;
  /// out = D_k^T v = (C_{k-1}^T v) / h on `w` RHS-interleaved columns (n w
  /// entries each, w == 1 a plain vector); per column the arithmetic is
  /// that column's alone.
  void applyDT(size_t k, const T* v, T* out, size_t w) const;

  /// One step down the grid of the transposed recursion, on a block of `w`
  /// RHS-interleaved columns:
  ///   next = K_k^{-T} (D_{k+1}^T cur + R_k),   D_{M+1} == D_1,
  /// where input(next) adds R_k to D_{k+1}^T cur before the solve. Column c
  /// of next reads only column c of cur, so every partition of the columns
  /// into blocks computes the same bits. The LPTV closure sweep and the
  /// adjoint sideband both carry their column blocks with it.
  template <class Input>
  void stepTransposed(size_t k, const T* cur, T* next, size_t w,
                      LuSolveScratch<T>& scratch, const Input& input) const {
    applyDT(k == steps() ? 1 : k + 1, cur, next, w);
    input(next);
    solveTransposedInPlace(k, std::span<T>(next, size() * w), w, scratch);
  }

  /// Carries one block of `cols` columns through steps k = 1..last of
  ///   X_k = K_k^{-1} (D_k X_{k-1} + R_k),
  /// one batched solve per step. `cur` holds X_0 column-major (n rows) and
  /// `next` is a block of the same size; the two ping-pong, so X_last ends
  /// in `cur`'s block for even `last` and in `next`'s for odd.
  /// input(j, k, out) adds column j of R_k (j counts from the block's first
  /// column) to out = D_k X_{k-1} e_j; visit(k, x) sees X_k's block after
  /// the solve. Column j of X_k reads only column j of X_{k-1}, so every
  /// partition of the columns into blocks computes the same bits.
  template <class Input, class Visit>
  void carry(T* cur, T* next, size_t cols, size_t last,
             LuSolveScratch<T>& scratch, const Input& input,
             const Visit& visit) const {
    const size_t n = size();
    for (size_t k = 1; k <= last; ++k) {
      for (size_t j = 0; j < cols; ++j) {
        const std::span<T> out(next + j * n, n);
        applyD(k, std::span<const T>(cur + j * n, n), out);
        input(j, k, out);
      }
      solveManyInPlace(k, std::span<T>(next, cols * n), cols, scratch);
      visit(k, static_cast<const T*>(next));
      std::swap(cur, next);
    }
  }

 private:
  std::span<const RealSparse> c_;
  Real invH_;
  std::vector<SparseLU<T>> lus_;
  size_t factors_ = 0;
};

/// The monodromy Phi = prod_k K_k^{-1} D_k of real step factors
/// (coef = 1/h): the homogeneous recursion from X_0 = I. Its n columns fan
/// out once across `pool`, each slot carrying one block through all M
/// steps, so the result is bit-identical for every jobs count. Solves
/// n * M columns.
RealMatrix sweepMonodromy(const StepFactors<Real>& steps, ThreadPool* pool);

}  // namespace psmn
