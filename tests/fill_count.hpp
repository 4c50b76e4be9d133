// Test-side fill counts for the ordering comparisons.
//
// SparseLU orders its columns by amdOrder alone, with no other ordering to
// compare against. The ordering tests still compare AMD's fill with the
// natural and static-degree orders, so the comparator fill is counted
// here: the elimination game on the graph of A + A^T under a given
// elimination order. Eliminating a vertex joins its remaining neighbours
// into a clique; with diagonal pivots, the k-th column of L and the k-th
// row of U hold exactly the remaining neighbours of the k-th vertex. So
// nnz(L+U) is n (U's diagonal) plus twice the neighbour counts summed
// over the elimination, the quantity SparseLU::factorNonZeros reports (L
// without its unit diagonal, U with its diagonal). Dense adjacency: meant
// for test fixtures of a few hundred unknowns.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "numeric/sparse_matrix.hpp"

namespace psmn::fill {

/// The input column order.
inline std::vector<int> naturalOrder(size_t n) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

/// Columns sorted by their nonzero count in A, ties kept in input order:
/// a static stand-in for minimum degree that never reacts to fill created
/// mid-elimination (SparseLU's column order before AMD).
template <class T>
std::vector<int> degreeOrder(const SparseMatrix<T>& a) {
  std::vector<int> order = naturalOrder(a.cols());
  const auto ptr = a.colPointers();
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return (ptr[x + 1] - ptr[x]) < (ptr[y + 1] - ptr[y]);
  });
  return order;
}

/// nnz(L+U) of eliminating the graph of A + A^T in `order` (order[k] is
/// the column eliminated at step k) with diagonal pivots.
template <class T>
size_t eliminationFill(const SparseMatrix<T>& a,
                       const std::vector<int>& order) {
  const size_t n = a.cols();
  std::vector<std::vector<char>> adj(n, std::vector<char>(n, 0));
  const auto ptr = a.colPointers();
  const auto idx = a.rowIndices();
  for (size_t j = 0; j < n; ++j) {
    for (int p = ptr[j]; p < ptr[j + 1]; ++p) {
      const auto i = static_cast<size_t>(idx[p]);
      if (i != j) adj[i][j] = adj[j][i] = 1;
    }
  }
  std::vector<char> eliminated(n, 0);
  std::vector<size_t> nbrs;
  size_t nnz = n;
  for (int v : order) {
    nbrs.clear();
    for (size_t u = 0; u < n; ++u) {
      if (adj[v][u] && !eliminated[u]) nbrs.push_back(u);
    }
    nnz += 2 * nbrs.size();
    for (size_t x : nbrs) {
      for (size_t y : nbrs) {
        if (x != y) adj[x][y] = 1;
      }
    }
    eliminated[v] = 1;
  }
  return nnz;
}

}  // namespace psmn::fill
