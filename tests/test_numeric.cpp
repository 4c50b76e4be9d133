// Unit and property tests for the numeric substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "fill_count.hpp"
#include "numeric/cholesky.hpp"
#include "numeric/dense_lu.hpp"
#include "numeric/fourier.hpp"
#include "numeric/ordering.hpp"
#include "numeric/rng.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/statistics.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace psmn {
namespace {

RealMatrix randomMatrix(size_t n, Rng& rng, Real diagBoost = 2.0) {
  RealMatrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += diagBoost;
  }
  return a;
}

// ------------------------------------------------------------ dense LU

class DenseLuSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(DenseLuSizes, SolvesRandomSystem) {
  const size_t n = GetParam();
  Rng rng(42 + n);
  const RealMatrix a = randomMatrix(n, rng);
  RealVector xTrue(n);
  for (auto& v : xTrue) v = rng.uniform(-5.0, 5.0);
  const RealVector b = matvec(a, std::span<const Real>(xTrue));
  const RealVector x = luSolve(a, std::span<const Real>(b));
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-9);
}

TEST_P(DenseLuSizes, TransposedSolveMatchesExplicitTranspose) {
  const size_t n = GetParam();
  Rng rng(142 + n);
  const RealMatrix a = randomMatrix(n, rng);
  RealVector b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  DenseLU<Real> lu(a);
  const RealVector x1 = lu.solveTransposed(b);
  const RealVector x2 = luSolve(transpose(a), std::span<const Real>(b));
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DenseLuSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

TEST(DenseLu, ComplexSolve) {
  Rng rng(7);
  const size_t n = 6;
  CplxMatrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j)
      a(i, j) = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    a(i, i) += 3.0;
  }
  CplxVector xTrue(n);
  for (auto& v : xTrue) v = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const CplxVector b = matvec(a, std::span<const Cplx>(xTrue));
  const CplxVector x = luSolve(a, std::span<const Cplx>(b));
  for (size_t i = 0; i < n; ++i) EXPECT_LT(std::abs(x[i] - xTrue[i]), 1e-10);
}

TEST(DenseLu, ComplexTransposedSolve) {
  Rng rng(17);
  const size_t n = 5;
  CplxMatrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j)
      a(i, j) = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    a(i, i) += 3.0;
  }
  CplxVector b(n);
  for (auto& v : b) v = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  DenseLU<Cplx> lu(a);
  const CplxVector x1 = lu.solveTransposed(b);
  const CplxVector x2 = luSolve(transpose(a), std::span<const Cplx>(b));
  for (size_t i = 0; i < n; ++i) EXPECT_LT(std::abs(x1[i] - x2[i]), 1e-10);
}

TEST(DenseLu, ThrowsOnSingular) {
  RealMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(DenseLU<Real>{a}, NumericalError);
}

TEST(DenseLu, PivotsZeroDiagonal) {
  // MNA-style matrix with a zero diagonal entry that needs pivoting.
  RealMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const RealVector b{3.0, 4.0};
  const RealVector x = luSolve(a, std::span<const Real>(b));
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

// ------------------------------------------------------------ sparse LU

class SparseLuSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(SparseLuSizes, MatchesDenseOnRandomSparseSystem) {
  const size_t n = GetParam();
  Rng rng(1000 + n);
  // Random sparse-ish matrix with guaranteed nonzero diagonal.
  RealMatrix dense(n, n);
  for (size_t i = 0; i < n; ++i) {
    dense(i, i) = rng.uniform(1.0, 3.0);
    for (size_t k = 0; k < 3; ++k) {
      const auto j = static_cast<size_t>(rng.uniform(0.0, 1.0) * n);
      if (j < n && j != i) dense(i, j) = rng.uniform(-1.0, 1.0);
    }
  }
  RealVector xTrue(n);
  for (auto& v : xTrue) v = rng.uniform(-2.0, 2.0);
  const RealVector b = matvec(dense, std::span<const Real>(xTrue));

  const auto sparse = RealSparse::fromDense(dense);
  SparseLU<Real> lu(sparse);
  const RealVector x = lu.solve(b);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseLuSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128));

TEST(SparseMatrix, TripletsSumDuplicates) {
  std::vector<Triplet<Real>> trips{{0, 0, 1.0}, {0, 0, 2.0}, {1, 0, -1.0}};
  const auto m = RealSparse::fromTriplets(2, 2, trips);
  EXPECT_EQ(m.nonZeros(), 2u);
  EXPECT_DOUBLE_EQ(m.toDense()(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.toDense()(1, 0), -1.0);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  Rng rng(5);
  RealMatrix dense(4, 4);
  dense(0, 0) = 2;
  dense(1, 2) = -1;
  dense(3, 1) = 4;
  dense(2, 2) = 1;
  const auto sp = RealSparse::fromDense(dense);
  RealVector x{1, 2, 3, 4};
  const auto y1 = sp.multiply(x);
  const auto y2 = matvec(dense, std::span<const Real>(x));
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(SparseLu, ThrowsOnSingular) {
  RealMatrix dense(2, 2);
  dense(0, 0) = 1.0;  // second row all zero
  const auto sp = RealSparse::fromDense(dense);
  EXPECT_THROW(SparseLU<Real>{sp}, NumericalError);
}

TEST(SparseMatrix, FindLocatesPatternSlots) {
  std::vector<Triplet<Real>> trips{{0, 0, 1.0}, {2, 0, -1.0}, {1, 1, 2.0}};
  auto m = RealSparse::fromTriplets(3, 3, trips);
  ASSERT_NE(m.find(2, 0), nullptr);
  EXPECT_DOUBLE_EQ(*m.find(2, 0), -1.0);
  EXPECT_EQ(m.find(1, 0), nullptr);   // not in pattern
  EXPECT_EQ(m.find(-1, 0), nullptr);  // ground
  *m.find(1, 1) += 0.5;
  EXPECT_DOUBLE_EQ(m.toDense()(1, 1), 2.5);
  m.zeroValues();
  EXPECT_EQ(m.nonZeros(), 3u);  // pattern kept
  EXPECT_DOUBLE_EQ(m.toDense()(0, 0), 0.0);
}

// The assembler merges the two patterns once; later calls re-stamp into
// that merged pattern, and an input off it is an error, not a silent
// re-merge under a caller's factorization.
TEST(SparseMatrix, MergedAssemblerRejectsAForeignPattern) {
  const std::vector<Triplet<Real>> gTrips{{0, 0, 2.0}, {1, 1, 3.0}};
  const std::vector<Triplet<Real>> cTrips{{0, 0, 1.0}, {0, 1, -1.0}};
  const auto g = RealSparse::fromTriplets(2, 2, gTrips);
  const auto c = RealSparse::fromTriplets(2, 2, cTrips);
  MergedSparseAssembler<Real> jac;
  jac.assemble(g, c, 10.0);
  EXPECT_EQ(jac.matrix.nonZeros(), 3u);
  EXPECT_DOUBLE_EQ(jac.matrix.toDense()(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(jac.matrix.toDense()(0, 1), -10.0);
  jac.assemble(g, c, 2.0);  // same patterns: re-stamped in place
  EXPECT_DOUBLE_EQ(jac.matrix.toDense()(0, 0), 4.0);

  const std::vector<Triplet<Real>> wider{{0, 0, 2.0}, {1, 0, 1.0}, {1, 1, 3.0}};
  EXPECT_THROW(jac.assemble(RealSparse::fromTriplets(2, 2, wider), c, 2.0),
               Error);
  const std::vector<Triplet<Real>> narrower{{0, 0, 1.0}};
  EXPECT_THROW(jac.assemble(g, RealSparse::fromTriplets(2, 2, narrower), 2.0),
               Error);
  EXPECT_EQ(jac.matrix.nonZeros(), 3u);  // the merged pattern is kept
}

// Returns a random sparse matrix with the same pattern for every `salt`,
// so refactor() sees identical structure with fresh values.
RealSparse patternedRandom(size_t n, uint64_t seed, uint64_t salt) {
  Rng pat(seed);
  std::vector<std::pair<int, int>> positions;
  for (size_t i = 0; i < n; ++i) {
    positions.emplace_back(static_cast<int>(i), static_cast<int>(i));
    for (size_t k = 0; k < 3; ++k) {
      const auto j = static_cast<size_t>(pat.uniform(0.0, 1.0) * n);
      if (j < n && j != i) {
        positions.emplace_back(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  Rng val(seed * 7919 + salt);
  std::vector<Triplet<Real>> trips;
  for (auto [i, j] : positions) {
    trips.push_back({i, j, i == j ? val.uniform(2.0, 4.0)
                                  : val.uniform(-1.0, 1.0)});
  }
  return RealSparse::fromTriplets(n, n, trips);
}

TEST(SparseLu, RefactorMatchesFullFactor) {
  const size_t n = 40;
  SparseLU<Real> lu(patternedRandom(n, 3, 0));
  for (uint64_t salt = 1; salt <= 4; ++salt) {
    const auto a = patternedRandom(n, 3, salt);
    ASSERT_TRUE(lu.refactor(a));
    RealVector xTrue(n);
    Rng rng(100 + salt);
    for (auto& v : xTrue) v = rng.uniform(-2.0, 2.0);
    const RealVector b = a.multiply(xTrue);
    const RealVector x = lu.solve(b);
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-8);
  }
}

TEST(SparseLu, RefactorRejectsCollapsedPivot) {
  // Factor a well-conditioned matrix, then refactor with values that drive
  // the kept pivot to zero: refactor must decline rather than divide by ~0.
  std::vector<Triplet<Real>> good{{0, 0, 4.0}, {1, 1, 3.0}, {0, 1, 1.0}};
  SparseLU<Real> lu(RealSparse::fromTriplets(2, 2, good));
  std::vector<Triplet<Real>> bad{{0, 0, 0.0}, {1, 1, 3.0}, {0, 1, 1.0}};
  EXPECT_FALSE(lu.refactor(RealSparse::fromTriplets(2, 2, bad)));
  EXPECT_FALSE(lu.factored());
  // A full factor restores the solver.
  lu.factor(RealSparse::fromTriplets(2, 2, good));
  EXPECT_TRUE(lu.factored());
}

TEST(SparseLu, RefactorDeclinesAfterFailedFactor) {
  // A factor() that throws mid-build leaves a partial factorization; a
  // subsequent refactor() must refuse to replay it even when the matrix
  // has the same size and nonzero count (the pre-guard cases).
  const size_t n = 8;
  const auto good = patternedRandom(n, 5, 0);
  SparseLU<Real> lu(good);
  // Same pattern as `good`, but one column numerically all-zero: factor()
  // throws partway through with internal state half-built.
  auto poisoned = good;
  {
    const auto ptr = poisoned.colPointers();
    auto vals = poisoned.values();
    for (int k = ptr[3]; k < ptr[4]; ++k) vals[k] = 0.0;
  }
  EXPECT_THROW(lu.factor(poisoned), NumericalError);
  EXPECT_FALSE(lu.factored());
  EXPECT_FALSE(lu.refactor(good));
  lu.factor(good);
  EXPECT_TRUE(lu.factored());
}

TEST(SparseLu, TransposedSolveRecoversKnownSolution) {
  // b = A^T x for a known x; the transposed solve (used by the adjoint
  // LPTV and PPV sweeps) must recover x through the kept L/U pattern,
  // including after a refactor with fresh values.
  const size_t n = 32;
  SparseLU<Real> lu(patternedRandom(n, 17, 0));
  for (uint64_t salt = 0; salt <= 2; ++salt) {
    const auto a = patternedRandom(n, 17, salt);
    if (salt > 0) {
      ASSERT_TRUE(lu.refactor(a));
    }
    RealVector xTrue(n);
    Rng rng(300 + salt);
    for (auto& v : xTrue) v = rng.uniform(-2.0, 2.0);
    const RealVector b =
        matvecT(a.toDense(), std::span<const Real>(xTrue));
    const RealVector x = lu.solveTransposed(b);
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-8);
  }
}

TEST(SparseLu, TransposedSolveComplexIsPlainTranspose) {
  // Complex transposed solve must use A^T (not A^H), matching DenseLU.
  const size_t n = 12;
  const auto ar = patternedRandom(n, 23, 0);
  CplxMatrix ac(n, n);
  {
    const auto d = ar.toDense();
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j)
        ac(i, j) = Cplx(d(i, j), 0.1 * d(j, i));
  }
  const auto asp = CplxSparse::fromDense(ac);
  SparseLU<Cplx> lu(asp);
  Rng rng(7);
  CplxVector xTrue(n);
  for (auto& v : xTrue) v = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const CplxVector b = matvecT(ac, std::span<const Cplx>(xTrue));
  const CplxVector x = lu.solveTransposed(b);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(x[i] - xTrue[i]), 1e-9);
  }
}

// ----------------------------------------------------- orderings / AMD

// Asserts `order` is a permutation of 0..n-1.
void expectValidPermutation(const std::vector<int>& order, size_t n) {
  ASSERT_EQ(order.size(), n);
  std::vector<char> seen(n, 0);
  for (int v : order) {
    ASSERT_GE(v, 0);
    ASSERT_LT(static_cast<size_t>(v), n);
    EXPECT_FALSE(seen[v]) << "column " << v << " appears twice";
    seen[v] = 1;
  }
}

// SparseLU's fill on an AmdOrdering fixture. The fixtures are
// structurally symmetric and keep their diagonal pivots, so a factor()
// that follows amdOrder has exactly the elimination-game fill under that
// order (tests/fill_count.hpp); the comparator orders are counted there.
size_t amdFill(const RealSparse& a) {
  const size_t nnz = SparseLU<Real>(a).factorNonZeros();
  EXPECT_EQ(nnz, fill::eliminationFill(
                     a, amdOrder(a.rows(), a.colPointers(), a.rowIndices())));
  return nnz;
}

size_t degreeFill(const RealSparse& a) {
  return fill::eliminationFill(a, fill::degreeOrder(a));
}

size_t naturalFill(const RealSparse& a) {
  return fill::eliminationFill(a, fill::naturalOrder(a.rows()));
}

// Arrow matrix with the dense hub FIRST: the worst case for the natural
// order (eliminating the hub first fills the whole matrix) and the
// canonical win for any minimum-degree strategy.
RealSparse arrowMatrix(size_t n) {
  std::vector<Triplet<Real>> t;
  for (size_t i = 0; i < n; ++i) {
    t.push_back({static_cast<int>(i), static_cast<int>(i), 4.0});
    if (i > 0) {
      t.push_back({0, static_cast<int>(i), 1.0});
      t.push_back({static_cast<int>(i), 0, 1.0});
    }
  }
  return RealSparse::fromTriplets(n, n, t);
}

RealSparse bandedMatrix(size_t n, int band) {
  std::vector<Triplet<Real>> t;
  for (int i = 0; i < static_cast<int>(n); ++i) {
    for (int j = std::max(0, i - band);
         j <= std::min(static_cast<int>(n) - 1, i + band); ++j) {
      t.push_back({i, j, i == j ? 4.0 : -0.5});
    }
  }
  return RealSparse::fromTriplets(n, n, t);
}

// Cycle ("ring") plus diagonal: minimum fill is n-3 edges; natural order
// builds an arrow against the wrap-around link.
RealSparse ringMatrix(size_t n) {
  std::vector<Triplet<Real>> t;
  for (int i = 0; i < static_cast<int>(n); ++i) {
    const int next = (i + 1) % static_cast<int>(n);
    t.push_back({i, i, 4.0});
    t.push_back({i, next, -1.0});
    t.push_back({next, i, -1.0});
  }
  return RealSparse::fromTriplets(n, n, t);
}

// 2D five-point grid: every interior column has the same count, so the
// static degree sort degenerates to (nearly) the natural band order while
// AMD finds a nested-dissection-like elimination.
RealSparse gridMatrix(int k) {
  const int n = k * k;
  auto id = [&](int r, int c) { return r * k + c; };
  std::vector<Triplet<Real>> t;
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < k; ++c) {
      t.push_back({id(r, c), id(r, c), 4.0});
      if (r + 1 < k) {
        t.push_back({id(r, c), id(r + 1, c), -1.0});
        t.push_back({id(r + 1, c), id(r, c), -1.0});
      }
      if (c + 1 < k) {
        t.push_back({id(r, c), id(r, c + 1), -1.0});
        t.push_back({id(r, c + 1), id(r, c), -1.0});
      }
    }
  }
  return RealSparse::fromTriplets(n, n, t);
}

TEST(AmdOrdering, ProducesValidPermutations) {
  for (const auto& a :
       {arrowMatrix(40), bandedMatrix(50, 3), ringMatrix(33), gridMatrix(7),
        patternedRandom(64, 11, 0)}) {
    expectValidPermutation(amdOrder(a.rows(), a.colPointers(), a.rowIndices()),
                           a.rows());
  }
}

TEST(AmdOrdering, HandlesDegenerateInputs) {
  expectValidPermutation(amdOrder(0, std::vector<int>{0}, {}), 0);
  // Diagonal-only matrix: every node is isolated.
  std::vector<Triplet<Real>> t;
  for (int i = 0; i < 5; ++i) t.push_back({i, i, 1.0});
  const auto d = RealSparse::fromTriplets(5, 5, t);
  expectValidPermutation(amdOrder(5, d.colPointers(), d.rowIndices()), 5);
}

TEST(AmdOrdering, ArrowMatrixEliminatesHubLast) {
  const auto a = arrowMatrix(60);
  const size_t amd = amdFill(a);
  // Hub last -> zero fill: nnz(L+U) equals nnz(A).
  EXPECT_EQ(amd, a.nonZeros());
  EXPECT_LE(amd, degreeFill(a));
  EXPECT_LT(amd, naturalFill(a));
}

TEST(AmdOrdering, BandedMatrixStaysBanded) {
  const auto a = bandedMatrix(64, 2);
  const size_t amd = amdFill(a);
  EXPECT_LE(amd, degreeFill(a));
  // The natural order is optimal on a band; AMD must not blow it up.
  EXPECT_LE(amd, 2 * naturalFill(a));
}

TEST(AmdOrdering, RingMatrixMatchesMinimumFill) {
  const size_t n = 48;
  const auto a = ringMatrix(n);
  const size_t amd = amdFill(a);
  EXPECT_LE(amd, degreeFill(a));
  // Minimum fill of a cycle is n-3 edges (2 entries each in L+U).
  EXPECT_LE(amd, a.nonZeros() + 2 * (n - 3));
}

TEST(AmdOrdering, GridBeatsStaticDegreeOrdering) {
  const auto a = gridMatrix(12);  // 144 unknowns
  EXPECT_LT(amdFill(a), degreeFill(a));
}

TEST(AmdOrdering, FactorSolvesAndRefactorsCorrectly) {
  const size_t n = 50;
  SparseLU<Real> lu(patternedRandom(n, 77, 0));
  for (uint64_t salt = 1; salt <= 3; ++salt) {
    const auto a = patternedRandom(n, 77, salt);
    ASSERT_TRUE(lu.refactor(a)) << "refactor after AMD ordering";
    RealVector xTrue(n);
    Rng rng(200 + salt);
    for (auto& v : xTrue) v = rng.uniform(-2.0, 2.0);
    const RealVector b = a.multiply(xTrue);
    const RealVector x = lu.solve(b);
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-8);
    // Transposed solve against the same AMD-ordered factorization.
    const RealVector bt = [&] {
      RealVector y(n, 0.0);
      const auto ptr = a.colPointers();
      const auto idx = a.rowIndices();
      const auto val = a.values();
      for (size_t j = 0; j < n; ++j) {
        for (int p = ptr[j]; p < ptr[j + 1]; ++p) {
          y[j] += val[p] * xTrue[idx[p]];  // y = A^T xTrue
        }
      }
      return y;
    }();
    const RealVector xt = lu.solveTransposed(bt);
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(xt[i], xTrue[i], 1e-8);
  }
}

TEST(AmdOrdering, ComplexFactorMatchesDense) {
  const size_t n = 30;
  const auto ar = patternedRandom(n, 55, 0);
  std::vector<Triplet<Cplx>> t;
  const auto ptr = ar.colPointers();
  const auto idx = ar.rowIndices();
  const auto val = ar.values();
  for (int j = 0; j < static_cast<int>(n); ++j) {
    for (int p = ptr[j]; p < ptr[j + 1]; ++p) {
      t.push_back({idx[p], j, Cplx(val[p], idx[p] == j ? 0.3 : 0.1)});
    }
  }
  const auto a = CplxSparse::fromTriplets(n, n, t);
  SparseLU<Cplx> lu(a);
  CplxVector xTrue(n);
  for (size_t i = 0; i < n; ++i) {
    xTrue[i] = Cplx(std::sin(0.3 * static_cast<Real>(i)),
                    std::cos(0.7 * static_cast<Real>(i)));
  }
  const CplxVector b = a.multiply(xTrue);
  const CplxVector x = lu.solve(b);
  for (size_t i = 0; i < n; ++i) EXPECT_LT(std::abs(x[i] - xTrue[i]), 1e-8);
}

// ------------------------------------------ blocked multi-RHS solves

// SparseLU's solveManyInPlace / solveTransposedInterleavedInPlace run
// RHS-interleaved blocked substitutions that must reproduce the
// column-at-a-time substitutions bit for bit. The reference is the
// single-RHS path applied column by column: it is the column-at-a-time
// substitution, and it fixes the per-column operation order the blocked
// kernels keep. (The single-RHS path also skips updates scaled by an exact
// zero, which cannot change a finite result.) Both take their pivot step
// through one kernel: a true division for Real, a multiply by the
// reciprocal pivot for Cplx. A pivot step on one path only fails here.

Real randomScalar(Rng& rng, Real) { return rng.uniform(-1.0, 1.0); }
Cplx randomScalar(Rng& rng, Cplx) {
  return {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
}

// The blocked transposed solve on a column-major block (column r at
// block[r*n ..]): it takes and returns the block RHS-interleaved, row i of
// column r at [i*nrhs + r].
template <class T>
void solveTransposedBlock(const SparseLU<T>& lu, std::vector<T>& block,
                          size_t nrhs, LuSolveScratch<T>& scratch) {
  const size_t n = lu.size();
  std::vector<T> rows(block.size());
  for (size_t r = 0; r < nrhs; ++r) {
    for (size_t i = 0; i < n; ++i) rows[i * nrhs + r] = block[r * n + i];
  }
  lu.solveTransposedInterleavedInPlace(rows, nrhs, scratch);
  for (size_t r = 0; r < nrhs; ++r) {
    for (size_t i = 0; i < n; ++i) block[r * n + i] = rows[i * nrhs + r];
  }
}

template <class T>
void expectBlockedSolvesExact(const SparseLU<T>& lu, uint64_t seed) {
  const size_t n = lu.size();
  Rng rng(seed);
  LuSolveScratch<T> scratch;
  for (size_t nrhs : {2u, 3u, 17u, 64u}) {
    for (bool transposed : {false, true}) {
      std::vector<T> block(n * nrhs);
      for (auto& v : block) v = randomScalar(rng, T{});
      std::fill(block.begin() + n, block.begin() + 2 * n, T{});  // column 1
      std::vector<T> expected = block;
      for (size_t r = 0; r < nrhs; ++r) {
        const std::span<T> col(expected.data() + r * n, n);
        if (transposed) lu.solveTransposedInPlace(col);
        else lu.solveInPlace(col);
      }
      if (transposed) solveTransposedBlock(lu, block, nrhs, scratch);
      else lu.solveManyInPlace(block, nrhs);
      for (size_t k = 0; k < block.size(); ++k) {
        ASSERT_EQ(std::real(block[k]), std::real(expected[k]))
            << "nrhs=" << nrhs << " transposed=" << transposed << " k=" << k;
        ASSERT_EQ(std::imag(block[k]), std::imag(expected[k]))
            << "nrhs=" << nrhs << " transposed=" << transposed << " k=" << k;
      }
    }
  }
}

// Complex matrix on x's symmetrized pattern: real part x, imaginary part
// 0.3 x^T.
CplxMatrix complexify(const RealMatrix& x) {
  CplxMatrix a(x.rows(), x.cols());
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) a(i, j) = Cplx(x(i, j), 0.3 * x(j, i));
  }
  return a;
}

// The complex reciprocal pivot moves a quotient by a few ulps, so every
// complex solve must stay within 1e-14 (relative to its largest entry) of
// the true-division solution: DenseLU's, which divides by each pivot and
// shares no code with the sparse substitutions. Blocked and single-column,
// forward and transposed.
void expectComplexSolvesMatchTrueDivision(const CplxSparse& a,
                                          const SparseLU<Cplx>& lu,
                                          uint64_t seed) {
  const size_t n = lu.size();
  const DenseLU<Cplx> ref(a.toDense());
  Rng rng(seed);
  LuSolveScratch<Cplx> scratch;
  for (size_t nrhs : {1u, 17u}) {
    for (bool transposed : {false, true}) {
      CplxVector block(n * nrhs);
      for (auto& v : block) v = randomScalar(rng, Cplx{});
      CplxVector want = block;
      if (transposed) solveTransposedBlock(lu, block, nrhs, scratch);
      else lu.solveManyInPlace(block, nrhs);
      for (size_t r = 0; r < nrhs; ++r) {
        const std::span<Cplx> col(want.data() + r * n, n);
        if (transposed) ref.solveTransposedInPlace(col);
        else ref.solveInPlace(col);
        Real scale = 0.0, gap = 0.0;
        for (size_t i = 0; i < n; ++i) {
          scale = std::max(scale, std::abs(col[i]));
          gap = std::max(gap, std::abs(block[r * n + i] - col[i]));
        }
        EXPECT_LE(gap, 1e-14 * scale)
            << "nrhs=" << nrhs << " transposed=" << transposed << " r=" << r;
      }
    }
  }
}

TEST(SparseLu, BlockedMultiRhsSolvesMatchColumnSolvesExactly) {
  const size_t n = 40;
  SparseLU<Real> lu(patternedRandom(n, 11, 0));
  expectBlockedSolvesExact<Real>(lu, 3);
  ASSERT_TRUE(lu.refactor(patternedRandom(n, 11, 1)));
  expectBlockedSolvesExact<Real>(lu, 4);

  const auto complexSparse = [&](uint64_t salt) {
    return CplxSparse::fromDense(
        complexify(patternedRandom(n, 11, salt).toDense()));
  };
  SparseLU<Cplx> clu(complexSparse(0));
  expectBlockedSolvesExact<Cplx>(clu, 5);
  expectComplexSolvesMatchTrueDivision(complexSparse(0), clu, 7);
  ASSERT_TRUE(clu.refactor(complexSparse(1)));
  expectBlockedSolvesExact<Cplx>(clu, 6);
  expectComplexSolvesMatchTrueDivision(complexSparse(1), clu, 8);
}

// ------------------------------------------------------------- cholesky

TEST(Cholesky, ReconstructsCovariance) {
  Rng rng(11);
  const size_t n = 5;
  RealMatrix b = randomMatrix(n, rng, 0.5);
  RealMatrix c(n, n);
  // C = B B^T is symmetric PSD.
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) {
      Real acc = 0;
      for (size_t k = 0; k < n; ++k) acc += b(i, k) * b(j, k);
      c(i, j) = acc;
    }
  const RealMatrix a = choleskyFactor(c);
  RealMatrix recon(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) {
      Real acc = 0;
      for (size_t k = 0; k < n; ++k) acc += a(i, k) * a(j, k);
      recon(i, j) = acc;
    }
  EXPECT_LT(maxAbsDiff(recon, c), 1e-9);
}

TEST(Cholesky, AcceptsSemiDefinitePerfectCorrelation) {
  RealMatrix c(2, 2);
  c(0, 0) = 1.0;
  c(0, 1) = 1.0;
  c(1, 0) = 1.0;
  c(1, 1) = 1.0;
  const RealMatrix a = choleskyFactor(c);
  EXPECT_NEAR(a(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(a(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(a(1, 1), 0.0, 1e-6);
}

TEST(Cholesky, RejectsIndefinite) {
  RealMatrix c(2, 2);
  c(0, 0) = 1.0;
  c(0, 1) = 2.0;
  c(1, 0) = 2.0;
  c(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_THROW(choleskyFactor(c), NumericalError);
}

TEST(Cholesky, RejectsAsymmetric) {
  RealMatrix c(2, 2);
  c(0, 0) = 1.0;
  c(0, 1) = 0.5;
  c(1, 0) = 0.1;
  c(1, 1) = 1.0;
  EXPECT_THROW(choleskyFactor(c), Error);
}

// -------------------------------------------------------------- fourier

TEST(Fourier, RecoversSingleTone) {
  const int m = 64;
  RealVector x(m);
  const Real amp = 1.7, phase = 0.6;
  for (int k = 0; k < m; ++k) {
    x[k] = amp * std::cos(2.0 * std::numbers::pi * 3.0 * k / m + phase);
  }
  const Cplx c3 = fourierCoefficient(x, 3);
  EXPECT_NEAR(2.0 * std::abs(c3), amp, 1e-12);
  EXPECT_NEAR(std::arg(c3), phase, 1e-12);
  EXPECT_NEAR(std::abs(fourierCoefficient(x, 1)), 0.0, 1e-12);
}

TEST(Fourier, DcCoefficientIsMean) {
  RealVector x{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(fourierCoefficient(x, 0).real(), 2.5, 1e-14);
  EXPECT_NEAR(fourierCoefficient(x, 0).imag(), 0.0, 1e-14);
}

// ------------------------------------------------------------ statistics

TEST(Moments, MatchesClosedFormOnSmallSet) {
  MomentAccumulator acc;
  for (Real v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // unbiased
}

TEST(Moments, GaussianSampleStatistics) {
  Rng rng(123);
  MomentAccumulator acc;
  const Real mu = 3.0, sd = 2.0;
  for (int i = 0; i < 200000; ++i) acc.add(rng.gaussian(mu, sd));
  EXPECT_NEAR(acc.mean(), mu, 0.02);
  EXPECT_NEAR(acc.stddev(), sd, 0.02);
  EXPECT_NEAR(acc.skewness(), 0.0, 0.03);
}

TEST(Moments, SkewedDistributionHasPositiveSkew) {
  Rng rng(9);
  MomentAccumulator acc;
  for (int i = 0; i < 100000; ++i) {
    const Real g = rng.gaussian();
    acc.add(g * g);  // chi-square(1), skewness 2*sqrt(2)
  }
  EXPECT_NEAR(acc.skewness(), 2.0 * std::sqrt(2.0), 0.15);
  EXPECT_GT(acc.normalizedSkewness(), 0.0);
}

TEST(Moments, MergeEqualsSequential) {
  Rng rng(77);
  MomentAccumulator all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const Real v = rng.uniform(-1, 5);
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_NEAR(a.skewness(), all.skewness(), 1e-9);
}

TEST(Correlation, RecoverKnownCorrelation) {
  Rng rng(55);
  const Real rho = 0.7;
  CorrelationAccumulator acc;
  for (int i = 0; i < 200000; ++i) {
    const Real x = rng.gaussian();
    const Real y = rho * x + std::sqrt(1 - rho * rho) * rng.gaussian();
    acc.add(x, y);
  }
  EXPECT_NEAR(acc.correlation(), rho, 0.01);
}

TEST(Statistics, ConfidenceMatchesPaperNumbers) {
  // Paper SS VI: 1000-point MC -> +-4.5%, 10000-point -> +-1.4%.
  EXPECT_NEAR(sigmaConfidence95(1000), 0.044, 0.002);
  EXPECT_NEAR(sigmaConfidence95(10000), 0.014, 0.001);
}

TEST(Rng, DeterministicPerSampleStreams) {
  Rng a = Rng::forSample(1, 7);
  Rng b = Rng::forSample(1, 7);
  Rng c = Rng::forSample(1, 8);
  const Real va = a.gaussian();
  EXPECT_DOUBLE_EQ(va, b.gaussian());
  EXPECT_NE(va, c.gaussian());
}

// ------------------------------------------------------------------ units

TEST(Units, ParsesSuffixes) {
  EXPECT_DOUBLE_EQ(*parseSpiceNumber("10p"), 1e-11);
  EXPECT_DOUBLE_EQ(*parseSpiceNumber("3.3k"), 3300.0);
  EXPECT_DOUBLE_EQ(*parseSpiceNumber("2MEG"), 2e6);
  EXPECT_DOUBLE_EQ(*parseSpiceNumber("2m"), 2e-3);
  EXPECT_DOUBLE_EQ(*parseSpiceNumber("1.5u"), 1.5e-6);
  EXPECT_DOUBLE_EQ(*parseSpiceNumber("100n"), 1e-7);
  EXPECT_DOUBLE_EQ(*parseSpiceNumber("4f"), 4e-15);
  EXPECT_DOUBLE_EQ(*parseSpiceNumber("7"), 7.0);
  EXPECT_DOUBLE_EQ(*parseSpiceNumber("10pF"), 1e-11);
  EXPECT_FALSE(parseSpiceNumber("volt").has_value());
}

TEST(Units, FormatsEngineering) {
  EXPECT_EQ(formatEng(0.0287, 3), "28.7m");
  EXPECT_EQ(formatEng(1.25e9, 3), "1.25G");
}

}  // namespace
}  // namespace psmn
