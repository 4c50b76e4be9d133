// Row kernels of SparseLU's substitutions (internal to numeric/): the
// blocked multi-RHS paths use them on interleaved rows, and the
// single-column paths take their pivot step through the same divideRow.
//
// A block of m right-hand sides is solved RHS-interleaved: row i of every
// column is contiguous at w[i*m .. i*m + m-1]. The forward solve copies a
// column-major block (column r at b[r*n .. r*n + n-1]) into that layout;
// the transposed solve takes it interleaved already. Each substitution step
// then becomes one unit-stride row update over all m columns. Per column the
// arithmetic is exactly the column-at-a-time substitution's, in the same
// order, so the results are bit-identical to solving the columns one at a
// time. That holds while the compiler does not contract a*b - c into fused
// multiply-adds: true for the default x86-64 target (no FMA), but a build
// with -march=native on an FMA machine contracts the two paths differently.
#pragma once

#include <cstddef>
#include <span>

#include "numeric/types.hpp"

namespace psmn::detail {

/// dst[r] -= a * src[r] for r < m (dst and src are distinct rows).
inline void subtractScaledRow(Real* __restrict dst,
                              const Real* __restrict src, Real a, size_t m) {
  for (size_t r = 0; r < m; ++r) dst[r] -= a * src[r];
}

/// Complex variant with the product written out as
/// (ar*xr - ai*xi, ar*xi + ai*xr): for finite operands these are the bits
/// GCC's std::complex operator* produces, without its C99 Annex G NaN check
/// (which can call __muldc3 and keeps the loop from vectorizing).
inline void subtractScaledRow(Cplx* __restrict dst,
                              const Cplx* __restrict src, Cplx a, size_t m) {
  const Real ar = a.real();
  const Real ai = a.imag();
  for (size_t r = 0; r < m; ++r) {
    const Real xr = src[r].real();
    const Real xi = src[r].imag();
    dst[r] = Cplx(dst[r].real() - (ar * xr - ai * xi),
                  dst[r].imag() - (ar * xi + ai * xr));
  }
}

/// row[r] /= pivot for r < m: the pivot step of every SparseLU
/// substitution, blocked (m columns of one interleaved row) and
/// single-column (m == 1) alike, so the two stay bit-identical. Real pivots
/// divide: the Newton, transient-sensitivity and shooting bits rest on it.
inline void divideRow(Real* row, Real pivot, size_t m) {
  for (size_t r = 0; r < m; ++r) row[r] /= pivot;
}

/// Complex variant: the reciprocal pivot is formed once (one std::complex
/// division) and every entry is multiplied by it, the product written out
/// as in subtractScaledRow. Dividing each entry would cost one libgcc
/// __divdc3 call per entry; the reciprocal moves a quotient by a few ulps.
inline void divideRow(Cplx* row, Cplx pivot, size_t m) {
  const Cplx inv = Cplx(1.0, 0.0) / pivot;
  const Real ar = inv.real();
  const Real ai = inv.imag();
  for (size_t r = 0; r < m; ++r) {
    const Real xr = row[r].real();
    const Real xi = row[r].imag();
    row[r] = Cplx(ar * xr - ai * xi, ar * xi + ai * xr);
  }
}

/// w[i*m + r] = b[r*n + i].
template <class T>
inline void interleaveBlock(std::span<const T> b, size_t n, size_t m, T* w) {
  for (size_t r = 0; r < m; ++r) {
    const T* col = b.data() + r * n;
    for (size_t i = 0; i < n; ++i) w[i * m + r] = col[i];
  }
}

/// b[r*n + to[i]] = w[i*m + r].
template <class T>
inline void deinterleaveBlock(const T* w, size_t n, size_t m, const int* to,
                              std::span<T> b) {
  for (size_t r = 0; r < m; ++r) {
    T* col = b.data() + r * n;
    for (size_t i = 0; i < n; ++i) col[to[i]] = w[i * m + r];
  }
}

}  // namespace psmn::detail
