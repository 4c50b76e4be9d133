// The fill-reducing column ordering of the sparse LU factorization.
//
// The factor cost of every sparse analysis (transient Newton, multi-RHS
// sensitivity, shooting PSS, LPTV, PPV) is dominated by the nonzeros of
// L+U, and those are a function of the column elimination order alone
// (given the threshold pivoting keeps pivots near the diagonal).
// SparseLU::factor pre-computes that order from the matrix pattern by
// approximate minimum degree on the symmetrized pattern A + A^T:
// quotient-graph elimination with supervariable merging, mass elimination,
// element absorption, and approximate external degrees. MNA matrices are
// structurally near-symmetric, so AMD on the symmetrized pattern is the
// right model (same choice as KLU). It is the only ordering:
// docs/architecture.md records the fill it saves over the natural and
// static-degree orders.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace psmn {

/// Approximate-minimum-degree ordering of the undirected graph of
/// A + A^T, given A's CSC pattern (`colPtr` size n+1, `rowIdx` size nnz;
/// values are irrelevant, diagonal entries are ignored). Returns the
/// elimination order: order[k] is the column eliminated at step k.
std::vector<int> amdOrder(size_t n, std::span<const int> colPtr,
                          std::span<const int> rowIdx);

}  // namespace psmn
