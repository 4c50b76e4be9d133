#include "rf/lptv.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "numeric/dense_lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "runtime/thread_pool.hpp"
#include "util/telemetry.hpp"

namespace psmn {
namespace {

constexpr Real kTwoPi = 2.0 * std::numbers::pi_v<Real>;

/// Per-slot scratch for the pool fan-outs: at most one column block runs
/// per slot at a time (ThreadPool contract), so the injection evaluation
/// buffers, the adjoint coupling vectors, and the LU solve scratch need no
/// locking.
struct LptvSlotScratch {
  RealVector bf, bq;    // one source's injection at the current grid point
  RealVector bqPrev;    // the adjoint transfer chain's rolling bq_{k-1}
  CplxVector col, dv;   // adjoint V_k column coupling
  LuSolveScratch<Cplx> lu;
};

CplxMatrix stepMatrix(const RealMatrix& g, const RealMatrix& c, Real invH,
                      Cplx jw) {
  const size_t n = g.rows();
  CplxMatrix k(n, n);
  const Cplx coef = invH + jw;
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) k(i, j) = g(i, j) + coef * c(i, j);
  return k;
}

// ---------------------------------------------------------------------
// Backend-agnostic access to the PSS orbit linearizations: the PSS result
// stores G_k/C_k either dense or in the sparse workspace's cached pattern;
// the cyclic solves below only touch them through these kernels.

/// out = (C_{k-1} v) / h  (the step coupling D_k applied to a complex
/// envelope; C is real, so this is two real sparse multiplies in one).
void applyD(const PssResult& pss, size_t k, std::span<const Cplx> v,
            std::span<Cplx> out, Real invH) {
  const size_t n = v.size();
  if (pss.sparseLinearizations) {
    std::fill(out.begin(), out.end(), Cplx{});
    const RealSparse& c = pss.cSpMats[k - 1];
    const auto ptr = c.colPointers();
    const auto idx = c.rowIndices();
    const auto val = c.values();
    for (size_t j = 0; j < n; ++j) {
      const Cplx xj = v[j];
      if (xj == Cplx{}) continue;
      for (int p = ptr[j]; p < ptr[j + 1]; ++p) out[idx[p]] += val[p] * xj;
    }
  } else {
    const RealMatrix& c = pss.cMats[k - 1];
    for (size_t i = 0; i < n; ++i) {
      Cplx acc{};
      const auto row = c.row(i);
      for (size_t j = 0; j < n; ++j) acc += row[j] * v[j];
      out[i] = acc;
    }
  }
  for (auto& o : out) o *= invH;
}

/// out = (C_{k-1}^T v) / h  (D_k^T for the adjoint sweep).
void applyDT(const PssResult& pss, size_t k, std::span<const Cplx> v,
             CplxVector& out, Real invH) {
  const size_t n = v.size();
  if (pss.sparseLinearizations) {
    const RealSparse& c = pss.cSpMats[k - 1];
    const auto ptr = c.colPointers();
    const auto idx = c.rowIndices();
    const auto val = c.values();
    out.resize(n);
    for (size_t j = 0; j < n; ++j) {
      Cplx acc{};
      for (int p = ptr[j]; p < ptr[j + 1]; ++p) acc += val[p] * v[idx[p]];
      out[j] = acc * invH;
    }
  } else {
    const RealMatrix& c = pss.cMats[k - 1];
    out.assign(n, Cplx{});
    for (size_t i = 0; i < n; ++i) {
      const Cplx vi = v[i];
      if (vi == Cplx{}) continue;
      const auto row = c.row(i);
      for (size_t j = 0; j < n; ++j) out[j] += row[j] * vi;
    }
    for (auto& o : out) o *= invH;
  }
}

/// One source's periodic injection envelope, streamed along the orbit:
///   b_k = -bf_k - (bq_k - bq_{k-1}) / h - j w bq_k,   k = 1..M,
/// evaluated at grid point k when a chain needs it. The caller keeps the
/// rolling bq_{k-1} (n reals per live chain), so no ns x M x n envelope
/// store is ever built; the per-point evaluation buffers are per slot.
class InjectionStream {
 public:
  InjectionStream(const MnaSystem& sys, const PssResult& pss, Cplx jw)
      : sys_(&sys), pss_(&pss), h_(pss.stepSize()), jw_(jw) {}

  /// Starts a chain at the grid origin: bqPrev = bq_0.
  void start(const InjectionSource& src, std::span<Real> bqPrev,
             LptvSlotScratch& sl) const {
    sys_->evalInjection(src, pss_->states[0], pss_->times[0], nullptr, &sl.bq);
    std::copy(sl.bq.begin(), sl.bq.end(), bqPrev.begin());
  }

  /// Calls visit(i, b_k[i]) for every unknown i, then rolls bqPrev from
  /// bq_{k-1} to bq_k. Steps of one chain must come in order k = 1, 2, ...
  template <class Visit>
  void step(const InjectionSource& src, size_t k, std::span<Real> bqPrev,
            LptvSlotScratch& sl, const Visit& visit) const {
    sys_->evalInjection(src, pss_->states[k], pss_->times[k], &sl.bf, &sl.bq);
    for (size_t i = 0; i < bqPrev.size(); ++i) {
      visit(i, -sl.bf[i] - (sl.bq[i] - bqPrev[i]) / h_ - jw_ * sl.bq[i]);
    }
    std::copy(sl.bq.begin(), sl.bq.end(), bqPrev.begin());
  }

 private:
  const MnaSystem* sys_;
  const PssResult* pss_;
  Real h_;
  Cplx jw_;
};

/// The LPTV factor cache: K_k = G_k + (1/h + j w) C_k factored for every
/// grid step k = 1..M, kept for the closure and forward/adjoint passes.
/// Dense results use DenseLU as before; sparse results assemble K into one
/// merged complex pattern (cached scatter maps, like the transient
/// workspace's Jacobian) and factor with SparseLU — the symbolic
/// factorization of step 1 is inherited by every later step through a
/// copy + numeric refactor, so the O(n^3)-per-step dense cost collapses to
/// O(fill) per step.
class StepFactors {
 public:
  StepFactors(const PssResult& pss, Real invH, Cplx jw) {
    const size_t m = pss.stepCount();
    sparse_ = pss.sparseLinearizations;
    if (!sparse_) {
      dense_.reserve(m);
      for (size_t k = 1; k <= m; ++k) {
        dense_.emplace_back(stepMatrix(pss.gMats[k], pss.cMats[k], invH, jw));
      }
      return;
    }
    lus_.resize(m);
    const Cplx coef = invH + jw;
    MergedSparseAssembler<Cplx> kAsm;
    bool symbolic = false;
    for (size_t k = 1; k <= m; ++k) {
      // A pattern change along the orbit (an evalSparse extension mid-run)
      // rebuilds the merge and restarts the symbolic reuse chain.
      if (kAsm.assemble(pss.gSpMats[k], pss.cSpMats[k], coef)) {
        symbolic = false;
      }
      SparseLU<Cplx>& lu = lus_[k - 1];
      if (symbolic) {
        lu = lus_[k - 2];  // inherit the symbolic factorization
        if (!lu.refactor(kAsm.matrix)) {
          lu.factor(kAsm.matrix, 0.1, pss.ordering);
        }
      } else {
        lu.factor(kAsm.matrix, 0.1, pss.ordering);
        symbolic = true;
      }
    }
  }

  // k = 1..M selects the step factor, matching the cyclic system indexing.
  // The block solves are concurrently callable: threads sharing step factor
  // k solve disjoint column blocks, one scratch per slot.
  void solveManyInPlace(size_t k, std::span<Cplx> b, size_t nrhs,
                        LuSolveScratch<Cplx>& scratch) const {
    if (sparse_) lus_[k - 1].solveManyInPlace(b, nrhs, scratch);
    else dense_[k - 1].solveManyInPlace(b, nrhs, scratch);
  }
  void solveTransposedInPlace(size_t k, std::span<Cplx> b) const {
    if (sparse_) lus_[k - 1].solveTransposedInPlace(b);
    else dense_[k - 1].solveTransposedInPlace(b);
  }
  void solveTransposedManyInPlace(size_t k, std::span<Cplx> b, size_t nrhs,
                                  LuSolveScratch<Cplx>& scratch) const {
    if (sparse_) lus_[k - 1].solveTransposedManyInPlace(b, nrhs, scratch);
    else dense_[k - 1].solveTransposedManyInPlace(b, nrhs, scratch);
  }

 private:
  bool sparse_ = false;
  std::vector<DenseLU<Cplx>> dense_;
  std::vector<SparseLU<Cplx>> lus_;
};

/// Cyclic-closure solver with the oscillator phase-mode correction.
///
/// For an autonomous PSS the continuous-time Floquet multiplier of the
/// phase mode is exactly 1, so the closure matrix S(w) has an eigenvalue
/// lamStar = exp(-j w T). The backward-Euler discretization perturbs it to
/// lam1 = lamStar*(1 + O(h)); at a 1 Hz offset |1 - lamStar| = wT ~ 1e-9
/// is far below that O(h) error, which would wipe out the 1/f phase-noise
/// amplification entirely (the discrete closure looks regular). We restore
/// the analytically-known eigenvalue with a rank-one spectral update
///   S' = S + (lamStar - lam1) u v^T,  v^T u = 1,
/// solved through the Sherman-Morrison identity:
///   (I-S')^{-1} b = (I-S)^{-1} b
///                   + u (v^T b) (lamStar - lam1) / ((1-lam1)(1-lamStar)).
/// (1 - lamStar) is evaluated as 2 sin^2(wT/2) + j sin(wT) to avoid the
/// catastrophic cancellation of 1 - cos(wT).
class ClosureSolver {
 public:
  ClosureSolver(const CplxMatrix& s, bool phaseCorrect, Real omega,
                Real period) {
    const size_t n = s.rows();
    CplxMatrix iMinusS = CplxMatrix::identity(n);
    iMinusS -= s;
    lu_.factor(iMinusS);
    if (!phaseCorrect) return;

    const Real theta = omega * period;
    const Real sh = std::sin(0.5 * theta);
    oneMinusLamStar_ = Cplx(2.0 * sh * sh, std::sin(theta));
    const Cplx lamStar = Cplx(1.0, 0.0) - oneMinusLamStar_;

    // Right/left eigenvectors of S for the eigenvalue nearest lamStar via
    // inverse iteration on (S - lamStar I).
    CplxMatrix shifted = s;
    for (size_t i = 0; i < n; ++i) shifted(i, i) -= lamStar;
    DenseLU<Cplx> inv(shifted);
    u_.assign(n, Cplx(1.0, 0.0));
    v_.assign(n, Cplx(1.0, 0.0));
    for (int it = 0; it < 40; ++it) {
      inv.solveInPlace(u_);
      inv.solveTransposedInPlace(v_);
      Real nu = 0.0, nv = 0.0;
      for (const Cplx& x : u_) nu = std::max(nu, std::abs(x));
      for (const Cplx& x : v_) nv = std::max(nv, std::abs(x));
      PSMN_CHECK(nu > 0.0 && nv > 0.0, "phase-mode inverse iteration died");
      for (Cplx& x : u_) x /= nu;
      for (Cplx& x : v_) x /= nv;
    }
    // Rayleigh quotient lam1 = v^T S u / v^T u and normalization v^T u = 1.
    const CplxVector su = matvec(s, std::span<const Cplx>(u_));
    Cplx vsu{}, vu{};
    for (size_t i = 0; i < n; ++i) {
      vsu += v_[i] * su[i];
      vu += v_[i] * u_[i];
    }
    PSMN_CHECK(std::abs(vu) > 1e-12, "degenerate phase-mode eigenvectors");
    lam1_ = vsu / vu;
    for (Cplx& x : v_) x /= vu;
    corrected_ = true;
  }

  /// Solves (I - S') x = b on the caller's LU scratch, so slots sharing one
  /// closure solve concurrently (one scratch per slot).
  CplxVector solve(std::span<const Cplx> b,
                   LuSolveScratch<Cplx>& scratch) const {
    CplxVector x(b.begin(), b.end());
    lu_.solveInPlace(x, scratch);
    if (!corrected_) return x;
    Cplx vb{};
    for (size_t i = 0; i < b.size(); ++i) vb += v_[i] * b[i];
    const Cplx oneMinusLam1 = Cplx(1.0, 0.0) - lam1_;
    const Cplx gain = vb * (oneMinusLam1 - oneMinusLamStar_) /
                      (oneMinusLam1 * oneMinusLamStar_);
    for (size_t i = 0; i < x.size(); ++i) x[i] += gain * u_[i];
    return x;
  }

 private:
  DenseLU<Cplx> lu_;
  bool corrected_ = false;
  CplxVector u_, v_;
  Cplx lam1_{};
  Cplx oneMinusLamStar_{};
};

}  // namespace

Cplx LptvSolution::harmonic(size_t sourceIdx, int outIndex, int n) const {
  PSMN_CHECK(sourceIdx < envelopes.size(), "bad source index");
  PSMN_CHECK(outIndex >= 0, "bad output index");
  const auto& env = envelopes[sourceIdx];
  Cplx acc{};
  const size_t m = env.size();
  for (size_t k = 0; k < m; ++k) {
    const Real phase = -kTwoPi * n * static_cast<Real>(k) / m;
    acc += env[k][outIndex] * Cplx(std::cos(phase), std::sin(phase));
  }
  return acc / static_cast<Real>(m);
}

LptvSolver::LptvSolver(const MnaSystem& sys, const PssResult& pss,
                       LptvOptions opt)
    : sys_(&sys), pss_(&pss), opt_(opt) {
  PSMN_CHECK(pss.stepCount() > 0, "empty PSS result");
  const size_t stored = pss.sparseLinearizations ? pss.gSpMats.size()
                                                 : pss.gMats.size();
  PSMN_CHECK(stored == pss.times.size(),
             "PSS result lacks stored linearizations");
}

LptvSolution LptvSolver::solveDirect(std::span<const InjectionSource> sources,
                                     Real offsetFreq) const {
  TraceSpan span(Phase::kLptv, "lptv_direct");
  const size_t n = sys_->size();
  const size_t m = pss_->stepCount();
  const Real invH = 1.0 / pss_->stepSize();
  const Cplx jw(0.0, kTwoPi * offsetFreq);
  const size_t ns = sources.size();
  const InjectionStream stream(*sys_, *pss_, jw);

  // Step-matrix factor cache K_k, k = 1..M (dense LU or pattern-sharing
  // sparse LU depending on how the PSS stored its linearizations).
  const StepFactors lus(*pss_, invH, jw);

  // Pass 1: the homogeneous part B and every source's particular part
  // alpha as one recursion over the n + ns columns X = [B | alpha]:
  //   X_k = K_k^{-1}(D_k X_{k-1} + R_k),  X_0 = [I | 0],  R_k = [0 | b_k].
  // Column j of X_k reads only column j of X_{k-1} (plus, for a source
  // column, that source's streamed injection), so each slot carries one
  // contiguous column block through all M steps with one batched solve
  // per step, bit-identical for every partition (no pool = one block).
  // A block ping-pongs between x and y; every block takes M steps, so X_M
  // ends up in the same buffer for all of them.
  ThreadPool* pool = opt_.pool;
  const size_t cols = n + ns;
  std::vector<LptvSlotScratch> slotScratch(columnBlockSlots(pool, cols));
  CplxVector x(n * cols, Cplx{}), y(n * cols);
  for (size_t j = 0; j < n; ++j) x[j * n + j] = Cplx(1.0, 0.0);
  RealVector bqPrev(n * ns);  // each live chain's rolling bq_{k-1}
  const auto bqOf = [&](size_t s) {
    return std::span<Real>(bqPrev.data() + s * n, n);
  };
  forEachColumnBlock(pool, cols, [&](size_t j0, size_t j1, size_t slot) {
    LptvSlotScratch& sl = slotScratch[slot];
    for (size_t j = std::max(j0, n); j < j1; ++j) {
      stream.start(sources[j - n], bqOf(j - n), sl);
    }
    Cplx* cur = x.data() + j0 * n;
    Cplx* next = y.data() + j0 * n;
    for (size_t k = 1; k <= m; ++k) {
      for (size_t j = j0; j < j1; ++j) {
        const std::span<Cplx> out(next + (j - j0) * n, n);
        applyD(*pss_, k, std::span<const Cplx>(cur + (j - j0) * n, n), out,
               invH);
        if (j < n) continue;
        stream.step(sources[j - n], k, bqOf(j - n), sl,
                    [&](size_t i, Cplx b) { out[i] += b; });
      }
      lus.solveManyInPlace(k, std::span<Cplx>(next, (j1 - j0) * n), j1 - j0,
                           sl.lu);
      std::swap(cur, next);
    }
  });
  const CplxVector& xm = m % 2 == 0 ? x : y;

  // Cyclic closure: (I - B_M) p_0 = alpha_M, with the phase-mode spectral
  // correction for oscillators.
  CplxMatrix bMat(n, n);
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) bMat(i, j) = xm[j * n + i];
  }
  const ClosureSolver closure(bMat, pss_->autonomous, kTwoPi * offsetFreq,
                              pss_->period);

  // Pass 2: every source's envelope p_k = K_k^{-1}(D_k p_{k-1} + b_k),
  // k = 1..M-1, from its closed p_0, fanned over sources the same way
  // (closure solve included). p_{k-1} is read from the stored envelope;
  // `p` holds each block's right-hand sides of the current step.
  LptvSolution sol;
  sol.omega = kTwoPi * offsetFreq;
  sol.steps = m;
  sol.envelopes.resize(ns);
  CplxVector p(n * ns);
  forEachColumnBlock(pool, ns, [&](size_t s0, size_t s1, size_t slot) {
    LptvSlotScratch& sl = slotScratch[slot];
    for (size_t s = s0; s < s1; ++s) {
      std::vector<CplxVector>& env = sol.envelopes[s];
      env.reserve(m);
      env.push_back(closure.solve(
          std::span<const Cplx>(xm.data() + (n + s) * n, n), sl.lu));
      stream.start(sources[s], bqOf(s), sl);
    }
    for (size_t k = 1; k < m; ++k) {
      for (size_t s = s0; s < s1; ++s) {
        const std::span<Cplx> out(p.data() + s * n, n);
        applyD(*pss_, k, sol.envelopes[s][k - 1], out, invH);
        stream.step(sources[s], k, bqOf(s), sl,
                    [&](size_t i, Cplx b) { out[i] += b; });
      }
      lus.solveManyInPlace(k, std::span<Cplx>(p.data() + s0 * n, (s1 - s0) * n),
                           s1 - s0, sl.lu);
      for (size_t s = s0; s < s1; ++s) {
        sol.envelopes[s].emplace_back(p.begin() + s * n,
                                      p.begin() + (s + 1) * n);
      }
    }
  });
  return sol;
}

CplxVector LptvSolver::solveAdjoint(std::span<const InjectionSource> sources,
                                    Real offsetFreq, int outIndex,
                                    int harmonic) const {
  TraceSpan span(Phase::kLptv, "lptv_adjoint");
  const size_t n = sys_->size();
  const size_t m = pss_->stepCount();
  const Real invH = 1.0 / pss_->stepSize();
  const Cplx jw(0.0, kTwoPi * offsetFreq);
  const size_t ns = sources.size();
  PSMN_CHECK(outIndex >= 0 && outIndex < static_cast<int>(n),
             "bad output index");

  // Functional: P_N = sum_{k=0}^{M-1} w_k p_k[out] with p_0 == p_M, i.e. in
  // terms of unknowns p_1..p_M the weight of p_M is w_0.
  auto weight = [&](size_t k) {
    const Real phase = -kTwoPi * harmonic * static_cast<Real>(k % m) / m;
    return Cplx(std::cos(phase), std::sin(phase)) / static_cast<Real>(m);
  };

  // Adjoint cyclic system (plain transpose, matching the complex-linear
  // functional):
  //   K_k^T l_k - D_{k+1}^T l_{k+1} = w_k e_out   (k = 1..M-1)
  //   K_M^T l_M - D_1^T   l_1       = w_0 e_out
  // Parametrize l_k = u_k + V_k l_1 downward from k = M.
  const StepFactors lus(*pss_, invH, jw);

  // u_k and V_k, stored for k=1..M.
  std::vector<CplxVector> u(m + 1, CplxVector(n, Cplx{}));
  std::vector<CplxMatrix> vMat(m + 1);
  CplxVector tmp(n);
  CplxVector colBuf(n * n);
  // Column fan-out for the V recursion: column j of V_k depends only on
  // column j of V_{k+1}. The same slots later run the per-source transfers.
  ThreadPool* pool = opt_.pool;
  std::vector<LptvSlotScratch> slotScratch(
      columnBlockSlots(pool, std::max(n, ns)));
  const auto updateVColumns = [&](size_t k, const CplxMatrix& vNext,
                                  CplxMatrix& vOut, size_t j0, size_t j1,
                                  size_t slot) {
    LptvSlotScratch& sl = slotScratch[slot];
    sl.col.resize(n);
    for (size_t j = j0; j < j1; ++j) {
      for (size_t i = 0; i < n; ++i) sl.col[i] = vNext(i, j);
      applyDT(*pss_, k + 1, sl.col, sl.dv, invH);
      std::copy(sl.dv.begin(), sl.dv.end(), colBuf.begin() + j * n);
    }
    lus.solveTransposedManyInPlace(k,
                                   std::span<Cplx>(colBuf.data() + j0 * n,
                                                   (j1 - j0) * n),
                                   j1 - j0, sl.lu);
    for (size_t j = j0; j < j1; ++j) {
      for (size_t i = 0; i < n; ++i) vOut(i, j) = colBuf[j * n + i];
    }
  };
  // k = M:
  {
    CplxVector rhs(n, Cplx{});
    rhs[outIndex] = weight(0);  // w_0 attaches to p_M
    lus.solveTransposedInPlace(m, rhs);
    u[m] = std::move(rhs);
    // V_M = K_M^{-T} D_1^T. Column j of D_1^T is row j of D_1 = C_0/h;
    // the sparse storage fills the whole column-major block in one CSC
    // sweep: entry C_0(r, c) lands at block position (row c, column r).
    // The assembly scatters across columns, so it stays serial; the
    // transposed substitution partitions per column block.
    std::fill(colBuf.begin(), colBuf.end(), Cplx{});
    if (pss_->sparseLinearizations) {
      const RealSparse& c0 = pss_->cSpMats[0];
      const auto ptr = c0.colPointers();
      const auto idx = c0.rowIndices();
      const auto val = c0.values();
      for (size_t cc = 0; cc < n; ++cc) {
        for (int p = ptr[cc]; p < ptr[cc + 1]; ++p) {
          colBuf[static_cast<size_t>(idx[p]) * n + cc] = val[p] * invH;
        }
      }
    } else {
      for (size_t j = 0; j < n; ++j) {
        for (size_t i = 0; i < n; ++i) {
          colBuf[j * n + i] = pss_->cMats[0](j, i) * invH;
        }
      }
    }
    CplxMatrix vm(n, n);
    forEachColumnBlock(
        pool, n, [&](size_t j0, size_t j1, size_t slot) {
          lus.solveTransposedManyInPlace(
              m,
              std::span<Cplx>(colBuf.data() + j0 * n, (j1 - j0) * n),
              j1 - j0, slotScratch[slot].lu);
          for (size_t j = j0; j < j1; ++j) {
            for (size_t i = 0; i < n; ++i) vm(i, j) = colBuf[j * n + i];
          }
        });
    vMat[m] = std::move(vm);
  }
  for (size_t k = m - 1; k >= 1; --k) {
    // l_k = K_k^{-T}(w_k e_out + D_{k+1}^T (u_{k+1} + V_{k+1} l_1)).
    applyDT(*pss_, k + 1, u[k + 1], tmp, invH);
    tmp[outIndex] += weight(k);
    lus.solveTransposedInPlace(k, tmp);
    u[k].assign(tmp.begin(), tmp.end());
    // V_k = K_k^{-T} D_{k+1}^T V_{k+1}, batched over per-slot column
    // blocks.
    CplxMatrix vk(n, n);
    forEachColumnBlock(pool, n,
                       [&](size_t j0, size_t j1, size_t slot) {
                         updateVColumns(k, vMat[k + 1], vk, j0, j1, slot);
                       });
    vMat[k] = std::move(vk);
  }
  // Close: (I - V_1) l_1 = u_1. The adjoint closure matrix V_1 is a cyclic
  // permutation-transpose of the forward one, so it shares the corrupted
  // phase eigenvalue and receives the same spectral correction.
  const ClosureSolver closure(vMat[1], pss_->autonomous,
                              kTwoPi * offsetFreq, pss_->period);
  CplxVector l1 = closure.solve(u[1], slotScratch[0].lu);

  // Recover all lambda_k.
  std::vector<CplxVector> lambda(m + 1);
  lambda[1] = l1;
  for (size_t k = m; k >= 2; --k) {
    lambda[k] = u[k];
    const CplxVector vl = matvec(vMat[k], std::span<const Cplx>(lambda[1]));
    for (size_t i = 0; i < n; ++i) lambda[k][i] += vl[i];
  }

  // Transfer per source: TF_s = sum_k lambda_k^T b_{s,k}, each source's
  // injections streamed along the orbit, sources fanned over the pool.
  const InjectionStream stream(*sys_, *pss_, jw);
  CplxVector out(ns, Cplx{});
  forEachColumnBlock(pool, ns, [&](size_t s0, size_t s1, size_t slot) {
    LptvSlotScratch& sl = slotScratch[slot];
    sl.bqPrev.resize(n);
    for (size_t s = s0; s < s1; ++s) {
      stream.start(sources[s], sl.bqPrev, sl);
      Cplx acc{};
      for (size_t k = 1; k <= m; ++k) {
        stream.step(sources[s], k, sl.bqPrev, sl,
                    [&](size_t i, Cplx b) { acc += lambda[k][i] * b; });
      }
      out[s] = acc;
    }
  });
  return out;
}

}  // namespace psmn
