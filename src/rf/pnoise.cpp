#include "rf/pnoise.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>
#include <type_traits>
#include <variant>

#include "numeric/dense_lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "rf/step_factors.hpp"
#include "runtime/thread_pool.hpp"
#include "util/telemetry.hpp"

namespace psmn {
namespace {

constexpr Real kTwoPi = 2.0 * std::numbers::pi_v<Real>;

template <class T>
constexpr bool kComplex = std::is_same_v<T, Cplx>;

/// The recursion's w: the offset on an oscillator, 0 on a driven orbit.
Real recursionOmega(const PssResult& pss) {
  return pss.autonomous ? kTwoPi * PnoiseOptions::offsetFreq : 0.0;
}

/// What every recursion on one orbit reads. `omega` is the recursion's w:
/// 0 for a real (driven) recursion.
struct LptvInputs {
  const MnaSystem& sys;
  const PssResult& pss;
  std::span<const InjectionSource> sources;
  const InjectionRows& rows;
  Real omega;
  ThreadPool* pool;
};

/// Per-slot scratch for the pool fan-outs: at most one column block runs
/// per slot at a time (ThreadPool contract), so the injection evaluation
/// buffers and the LU solve scratch need no locking.
template <class T>
struct LptvSlotScratch {
  RealVector bf, bq;  // one source's injection at the current grid point
  RealVector bqPrev;  // a chain's rolling bq_{k-1}, on the source's rows
  LuSolveScratch<T> lu;
};

/// One source's periodic injection envelope, streamed along the orbit:
///   b_k = -bf_k - (bq_k - bq_{k-1}) / h - j w bq_k,   k = 1..M,
/// evaluated at grid point k when a chain needs it, on the source's rows
/// only; a real recursion runs at w = 0 and drops the last term. The
/// caller keeps the rolling bq_{k-1} (one real per row of each live
/// chain), so no ns x M envelope store is ever built; the per-point
/// evaluation buffers are per slot.
template <class T>
class InjectionStream {
 public:
  explicit InjectionStream(const LptvInputs& in)
      : in_(&in), h_(in.pss.stepSize()), jw_(0.0, in.omega) {}

  /// Starts source s's chain at grid point k: bqPrev = bq_k on its rows.
  void start(size_t s, size_t k, std::span<Real> bqPrev,
             LptvSlotScratch<T>& sl) const {
    const std::span<const int> rows = in_->rows.of(s);
    in_->sys.evalInjection(in_->sources[s], in_->pss.states[k],
                           in_->pss.times[k], nullptr, &sl.bq, rows);
    for (size_t r = 0; r < rows.size(); ++r) bqPrev[r] = sl.bq[rows[r]];
  }

  /// Calls visit(i, b_k[i]) for every row i of source s, ascending, and
  /// rolls bqPrev from bq_{k-1} to bq_k. Steps of one chain come in order.
  template <class Visit>
  void step(size_t s, size_t k, std::span<Real> bqPrev,
            LptvSlotScratch<T>& sl, const Visit& visit) const {
    const std::span<const int> rows = in_->rows.of(s);
    in_->sys.evalInjection(in_->sources[s], in_->pss.states[k],
                           in_->pss.times[k], &sl.bf, &sl.bq, rows);
    for (size_t r = 0; r < rows.size(); ++r) {
      const auto i = static_cast<size_t>(rows[r]);
      const Real b = -sl.bf[i] - (sl.bq[i] - bqPrev[r]) / h_;
      if constexpr (kComplex<T>) {
        visit(i, b - jw_ * sl.bq[i]);
      } else {
        visit(i, b);
      }
      bqPrev[r] = sl.bq[i];
    }
  }

 private:
  const LptvInputs* in_;
  Real h_;
  Cplx jw_;  // read by the complex recursion only
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
  ClosureSolver(const CplxMatrix& s, Real omega, Real period) {
    const size_t n = s.rows();
    CplxMatrix iMinusS = CplxMatrix::identity(n);
    iMinusS -= s;
    lu_.factor(iMinusS);

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
  }

  /// Solves (I - S') x = b in place (x holds b on entry) on the caller's
  /// LU scratch, so slots sharing one closure solve concurrently (one
  /// scratch per slot).
  void solveInPlace(std::span<Cplx> x, LuSolveScratch<Cplx>& scratch) const {
    Cplx vb{};
    for (size_t i = 0; i < x.size(); ++i) vb += v_[i] * x[i];
    lu_.solveInPlace(x, scratch);
    const Cplx oneMinusLam1 = Cplx(1.0, 0.0) - lam1_;
    const Cplx gain = vb * (oneMinusLam1 - oneMinusLamStar_) /
                      (oneMinusLam1 * oneMinusLamStar_);
    for (size_t i = 0; i < x.size(); ++i) x[i] += gain * u_[i];
  }

 private:
  DenseLU<Cplx> lu_;
  CplxVector u_, v_;
  Cplx lam1_{};
  Cplx oneMinusLamStar_{};
};

/// The cycle closure (I - S) x = b of a recursion: on a driven orbit (real,
/// w = 0) a plain LU of I - S, whose S is the monodromy; on an oscillator
/// the phase-corrected ClosureSolver. Both solve in place on a slot's LU
/// scratch.
template <class T>
auto cycleClosure(const Matrix<T>& s, const LptvInputs& in) {
  if constexpr (kComplex<T>) {
    return ClosureSolver(s, in.omega, in.pss.period);
  } else {
    RealMatrix iMinusS = RealMatrix::identity(s.rows());
    iMinusS -= s;
    return DenseLU<Real>(iMinusS);
  }
}

/// The closure sweep and the cyclic closure: every source's periodic p_0,
/// n x ns column-major.
///
/// p_0 solves (I - Phi) p_0 = alpha_M, where Phi = B_M is the recursion's
/// monodromy and alpha_M = sum_k P_k b_k its particular part at step M,
/// P_k = K_M^{-1} D_M ... K_{k+1}^{-1} D_{k+1} K_k^{-1}. One backward sweep
/// of the n columns Y_k = P_k^T gives both, without carrying any source
/// through the period:
///   Y_k = K_k^{-T}(D_{k+1}^T Y_{k+1} + R_k),  Y_{M+1} = 0,  R_M = I
/// (R_k = 0 below M, so Y_M = K_M^{-T}), then
///   alpha_M = sum_k Y_k^T b_k,   Phi^T = D_1^T Y_1.
/// A source's b_k is zero off its rows, so its share of step k is one row
/// update of the block's alpha accumulators per nonzero row entry.
///
/// The sweep runs in windows of kWindow grid steps: every source's
/// injections over the window, fanned over sources, then every column
/// block down the window (StepFactors::stepTransposed, the block kept
/// RHS-interleaved throughout), fanned over blocks; no store of every
/// source at every step is built. A block keeps its Y and its alpha
/// accumulators (acc[s w + c]) at offsets fixed by its first column, the
/// accumulators kPad entries (a cache line of doubles) apart from the next
/// block's, so no two slots add into one line; every block takes the same
/// steps, so a window leaves every block's Y in the same one of ya and yb,
/// swapped back into ya. Column c's Y and alpha entries read only column
/// c, so every partition computes the same bits (no pool = one block). The
/// closure carries the phase-mode spectral correction on oscillators.
template <class T>
std::vector<T> closedOrigins(const LptvInputs& in, const StepFactors<T>& lus) {
  constexpr size_t kWindow = 32, kPad = 8;
  const size_t n = in.sys.size();
  const size_t m = in.pss.stepCount();
  const size_t ns = in.sources.size();
  const InjectionStream<T> stream(in);
  std::vector<LptvSlotScratch<T>> slotScratch(
      columnBlockSlots(in.pool, std::max(n, ns)));
  std::vector<T> ya(n * n, T{}), yb(n * n);
  std::vector<T> acc(n * (ns + kPad), T{});
  // Source s's b_k, k = lo..hi, from window[begin[s] kWindow] on, one run
  // of its rows per step.
  std::vector<T> window(in.rows.flat.size() * kWindow);
  Matrix<T> phi(n, n);
  std::vector<T> p0(n * ns);
  for (size_t hi = m; hi > 0;) {
    const size_t lo = hi > kWindow ? hi - kWindow + 1 : 1;
    forEachColumnBlock(in.pool, ns, [&](size_t s0, size_t s1, size_t slot) {
      LptvSlotScratch<T>& sl = slotScratch[slot];
      for (size_t s = s0; s < s1; ++s) {
        sl.bqPrev.resize(in.rows.of(s).size());
        T* out = window.data() + in.rows.begin[s] * kWindow;
        stream.start(s, lo - 1, sl.bqPrev, sl);
        for (size_t k = lo; k <= hi; ++k) {
          stream.step(s, k, sl.bqPrev, sl, [&](size_t, T b) { *out++ = b; });
        }
      }
    });
    forEachColumnBlock(in.pool, n, [&](size_t j0, size_t j1, size_t slot) {
      const size_t w = j1 - j0;
      T* cur = ya.data() + j0 * n;
      T* next = yb.data() + j0 * n;
      T* a = acc.data() + j0 * (ns + kPad);
      for (size_t k = hi; k >= lo; --k) {
        lus.stepTransposed(k, cur, next, w, slotScratch[slot].lu, [&](T* r) {
          if (k != m) return;
          for (size_t c = 0; c < w; ++c) r[(j0 + c) * w + c] += T(1.0);
        });
        std::swap(cur, next);
        for (size_t s = 0; s < ns; ++s) {
          const std::span<const int> rows = in.rows.of(s);
          const T* b = window.data() + in.rows.begin[s] * kWindow +
                       (k - lo) * rows.size();
          T* __restrict as = a + s * w;
          for (size_t r = 0; r < rows.size(); ++r) {
            const T br = b[r];
            if (br == T{}) continue;
            const T* __restrict y = cur + static_cast<size_t>(rows[r]) * w;
            for (size_t c = 0; c < w; ++c) as[c] += y[c] * br;
          }
        }
      }
      if (lo > 1) return;
      // Y_1 in hand: this block's rows of Phi (row i of D_1^T Y_1 is
      // Phi's column i) and its entries of every alpha_M.
      lus.applyDT(1, cur, next, w);
      for (size_t c = 0; c < w; ++c) {
        for (size_t i = 0; i < n; ++i) phi(j0 + c, i) = next[i * w + c];
        for (size_t s = 0; s < ns; ++s) p0[s * n + j0 + c] = a[s * w + c];
      }
    });
    if ((hi - lo) % 2 == 0) std::swap(ya, yb);  // an odd step count
    hi = lo - 1;
  }

  const auto closure = cycleClosure(phi, in);
  forEachColumnBlock(in.pool, ns, [&](size_t s0, size_t s1, size_t slot) {
    for (size_t s = s0; s < s1; ++s) {
      closure.solveInPlace(std::span<T>(p0.data() + s * n, n),
                           slotScratch[slot].lu);
    }
  });
  return p0;
}

/// Direct pass 2: every source's envelope p_k = K_k^{-1}(D_k p_{k-1} + b_k),
/// k = 1..last, from its closed p_0, fanned over sources: each slot carries
/// one block of source columns (StepFactors::carry), ping-ponging
/// p_{k-1} -> p_k between x and y, and keep(s, k, p_k) sees each iterate
/// once, on the slot that owns s.
template <class T, class Keep>
void envelopePass(const LptvInputs& in, const StepFactors<T>& lus,
                  const std::vector<T>& p0, size_t last, const Keep& keep) {
  const size_t n = in.sys.size();
  const size_t ns = in.sources.size();
  const InjectionStream<T> stream(in);
  std::vector<LptvSlotScratch<T>> slotScratch(columnBlockSlots(in.pool, ns));
  std::vector<T> x(p0), y(n * ns);
  RealVector bqPrev(in.rows.flat.size());  // every chain's, on its rows
  const auto bqOf = [&](size_t s) {
    return std::span<Real>(bqPrev.data() + in.rows.begin[s],
                           in.rows.of(s).size());
  };
  forEachColumnBlock(in.pool, ns, [&](size_t s0, size_t s1, size_t slot) {
    LptvSlotScratch<T>& sl = slotScratch[slot];
    for (size_t s = s0; s < s1; ++s) {
      keep(s, 0, std::span<const T>(x.data() + s * n, n));
      stream.start(s, 0, bqOf(s), sl);
    }
    const auto inject = [&](size_t j, size_t k, std::span<T> out) {
      stream.step(s0 + j, k, bqOf(s0 + j), sl,
                  [&](size_t i, T b) { out[i] += b; });
    };
    const auto visit = [&](size_t k, const T* pk) {
      for (size_t s = s0; s < s1; ++s) {
        keep(s, k, std::span<const T>(pk + (s - s0) * n, n));
      }
    };
    lus.carry(x.data() + s0 * n, y.data() + s0 * n, s1 - s0, last, sl.lu,
              inject, visit);
  });
}

/// The adjoint transfers P_N[out] of every source (PnoiseAnalysis::sideband).
template <class T>
CplxVector adjointTransfers(const LptvInputs& in, const StepFactors<T>& lus,
                            size_t out, int harmonic) {
  const size_t n = in.sys.size();
  const size_t m = in.pss.stepCount();
  const size_t ns = in.sources.size();

  // Functional: P_N = sum_{k=0}^{M-1} w_k p_k[out] with p_0 == p_M, i.e. in
  // terms of unknowns p_1..p_M the weight of p_M is w_0. A complex
  // recursion carries the complex w_k in one column. A real one carries
  // Re w_k, and for N != 0 Im w_k in a second column (weight c = 0, 1):
  // the adjoint operator is real, so the two parts never mix.
  const size_t nw = !kComplex<T> && harmonic != 0 ? 2 : 1;
  const auto weight = [&](size_t k, size_t c) -> T {
    const Real phase = -kTwoPi * harmonic * static_cast<Real>(k % m) / m;
    if constexpr (kComplex<T>) {
      return Cplx(std::cos(phase), std::sin(phase)) / static_cast<Real>(m);
    } else {
      return (c == 0 ? std::cos(phase) : std::sin(phase)) /
             static_cast<Real>(m);
    }
  };

  // Adjoint cyclic system (plain transpose, matching the complex-linear
  // functional), with l_{M+1} == l_1:
  //   K_k^T l_k - D_{k+1}^T l_{k+1} = w_k e_out,   k = 1..M.
  // Parametrize l_k = u_k + V_k l_1 and run the transposed recursion
  // (StepFactors::stepTransposed) downward over the n + nw columns
  // Y = [V | u]:
  //   Y_k = K_k^{-T}(D_{k+1}^T Y_{k+1} + [0 | w_k e_out]),
  //   Y_{M+1} = [I | 0].
  // Column j of Y_k reads only column j of Y_{k+1}, so each slot carries
  // one RHS-interleaved column block through all M steps (u rides in the
  // last block or two); only Y_1 survives, as V_1 and u_1 (column-major).
  const size_t cols = n + nw;
  std::vector<LptvSlotScratch<T>> slotScratch(
      columnBlockSlots(in.pool, std::max(cols, ns)));
  std::vector<T> x(n * cols, T{}), y(n * cols);
  Matrix<T> v1(n, n);
  std::vector<T> u1(n * nw);
  forEachColumnBlock(in.pool, cols, [&](size_t j0, size_t j1, size_t slot) {
    const size_t w = j1 - j0;
    T* cur = x.data() + j0 * n;
    T* next = y.data() + j0 * n;
    for (size_t j = j0; j < std::min(j1, n); ++j) cur[j * w + j - j0] = 1.0;
    for (size_t k = m; k >= 1; --k) {
      lus.stepTransposed(k, cur, next, w, slotScratch[slot].lu, [&](T* r) {
        for (size_t j = std::max(j0, n); j < j1; ++j) {
          r[out * w + j - j0] += weight(k, j - n);
        }
      });
      std::swap(cur, next);
    }
    for (size_t j = j0; j < j1; ++j) {
      for (size_t i = 0; i < n; ++i) {
        const T v = cur[i * w + j - j0];
        if (j < n) {
          v1(i, j) = v;
        } else {
          u1[(j - n) * n + i] = v;
        }
      }
    }
  });

  // Close: (I - V_1) l_1 = u_1. The adjoint closure matrix V_1 is a cyclic
  // permutation-transpose of the forward one, so on an oscillator it shares
  // the corrupted phase eigenvalue and receives the same spectral
  // correction. The forward closure applies it at the p_M -> p_0 cut and
  // this one at the l_1 cut, so on an oscillator the two transfers differ
  // by the correction's discretization error (1.6e-5 of the largest
  // transfer on the ring), not by roundoff: the gap is the same at 40, 400
  // and 4000 inverse iterations.
  const auto closure = cycleClosure(v1, in);
  for (size_t c = 0; c < nw; ++c) {
    closure.solveInPlace(std::span<T>(u1.data() + c * n, n),
                         slotScratch[0].lu);
  }
  // l_k, k = 1..M, nw RHS-interleaved columns downward from l_{M+1} = l_1:
  // lambda holds l_k's at offset (k - 1) n nw.
  const size_t ln = n * nw;
  std::vector<T> lambda(ln * m);
  for (size_t c = 0; c < nw; ++c) {
    for (size_t i = 0; i < n; ++i) lambda[i * nw + c] = u1[c * n + i];
  }
  for (size_t k = m; k >= 2; --k) {
    const T* lNext = lambda.data() + (k == m ? 0 : k * ln);
    lus.stepTransposed(k, lNext, lambda.data() + (k - 1) * ln, nw,
                       slotScratch[0].lu, [&](T* r) {
                         for (size_t c = 0; c < nw; ++c) {
                           r[out * nw + c] += weight(k, c);
                         }
                       });
  }

  // Transfer per source: TF_s = sum_k l_k^T b_{s,k}, each source's
  // injections streamed along the orbit, sources fanned over the pool.
  const InjectionStream<T> stream(in);
  CplxVector tf(ns, Cplx{});
  forEachColumnBlock(in.pool, ns, [&](size_t s0, size_t s1, size_t slot) {
    LptvSlotScratch<T>& sl = slotScratch[slot];
    for (size_t s = s0; s < s1; ++s) {
      sl.bqPrev.resize(in.rows.of(s).size());
      stream.start(s, 0, sl.bqPrev, sl);
      T acc[2] = {};
      for (size_t k = 1; k <= m; ++k) {
        const T* lk = lambda.data() + (k - 1) * ln;
        stream.step(s, k, sl.bqPrev, sl, [&](size_t i, T b) {
          for (size_t c = 0; c < nw; ++c) acc[c] += lk[i * nw + c] * b;
        });
      }
      if constexpr (kComplex<T>) {
        tf[s] = acc[0];
      } else {
        tf[s] = Cplx(acc[0], acc[1]);
      }
    }
  });
  return tf;
}

/// What the readouts of one orbit share, in the orbit's scalar: the step
/// factors (direct and adjoint) and, after the first direct readout,
/// every source's closed p_0.
template <class T>
struct Cycle {
  StepFactors<T> factors;
  std::optional<std::vector<T>> p0;
};

}  // namespace

struct PnoiseAnalysis::Cache {
  InjectionRows rows;
  std::variant<Cycle<Real>, Cycle<Cplx>> cycle;
};

Cplx LptvSolution::harmonic(size_t sourceIdx, int outIndex, int n) const {
  PSMN_CHECK(sourceIdx < envelopes.size(), "bad source index");
  const auto& env = envelopes[sourceIdx];
  PSMN_CHECK(outIndex >= 0 && (env.empty() ||
                               static_cast<size_t>(outIndex) < env[0].size()),
             "bad output index");
  Cplx acc{};
  const size_t m = env.size();
  for (size_t k = 0; k < m; ++k) {
    const Real phase = -kTwoPi * n * static_cast<Real>(k) / m;
    acc += env[k][outIndex] * Cplx(std::cos(phase), std::sin(phase));
  }
  return acc / static_cast<Real>(m);
}

PnoiseAnalysis::PnoiseAnalysis(const MnaSystem& sys, const PssResult& pss,
                               PnoiseOptions opt)
    : PnoiseAnalysis(sys, pss, sys.collectSources(), opt) {}

PnoiseAnalysis::PnoiseAnalysis(const MnaSystem& sys, const PssResult& pss,
                               std::vector<InjectionSource> sources,
                               PnoiseOptions opt)
    : sys_(&sys), pss_(&pss), sources_(std::move(sources)), pool_(opt.pool) {
  PSMN_CHECK(pss.stepCount() > 0, "empty PSS result");
  PSMN_CHECK(pss.gSpMats.size() == pss.times.size() &&
                 pss.cSpMats.size() == pss.times.size(),
             "PSS result lacks stored linearizations");
  PSMN_CHECK(!sources_.empty(), "no injection sources");
  // Only an oscillator's recursion runs at the offset.
  const Real f0 = 1.0 / pss.period;
  PSMN_CHECK(!pss.autonomous || PnoiseOptions::offsetFreq < 0.01 * f0,
             "offset frequency must be far below the fundamental");
}

PnoiseAnalysis::~PnoiseAnalysis() = default;
PnoiseAnalysis::PnoiseAnalysis(PnoiseAnalysis&&) noexcept = default;
PnoiseAnalysis& PnoiseAnalysis::operator=(PnoiseAnalysis&&) noexcept = default;

PnoiseAnalysis::Cache& PnoiseAnalysis::cache() const {
  if (!cache_) {
    const Real h = pss_->stepSize();
    const Real omega = recursionOmega(*pss_);
    InjectionRows rows(sources_);
    if (pss_->autonomous) {
      cache_ = std::make_unique<Cache>(Cache{
          std::move(rows),
          Cycle<Cplx>{StepFactors<Cplx>(pss_->gSpMats, pss_->cSpMats, h,
                                        1.0 / h + Cplx(0.0, omega)),
                      std::nullopt}});
    } else {
      cache_ = std::make_unique<Cache>(Cache{
          std::move(rows),
          Cycle<Real>{
              StepFactors<Real>(pss_->gSpMats, pss_->cSpMats, h, 1.0 / h),
              std::nullopt}});
    }
  }
  return *cache_;
}

template <class Keep>
void PnoiseAnalysis::walkEnvelopes(size_t last, const Keep& keep) const {
  const bool closed =
      cache_ && std::visit([](const auto& cy) { return cy.p0.has_value(); },
                           cache_->cycle);
  Cache& c = cache();
  const LptvInputs in{*sys_, *pss_, sources_, c.rows, recursionOmega(*pss_),
                      pool_};
  if (!closed) {
    TraceSpan span(Phase::kLptv, "lptv_direct");
    std::visit([&](auto& cy) { cy.p0 = closedOrigins(in, cy.factors); },
               c.cycle);
  }
  TraceSpan span(Phase::kLptv, "lptv_envelopes");
  std::visit(
      [&](const auto& cy) { envelopePass(in, cy.factors, *cy.p0, last, keep); },
      c.cycle);
}

const LptvSolution& PnoiseAnalysis::solution() const {
  if (!solution_) {
    TraceSpan span(Phase::kPnoise, "pnoise");
    const size_t m = pss_->stepCount();
    LptvSolution sol;
    sol.omega = recursionOmega(*pss_);
    sol.steps = m;
    sol.envelopes.resize(sources_.size());
    for (auto& env : sol.envelopes) env.reserve(m);
    walkEnvelopes(m - 1, [&](size_t s, size_t, auto p) {
      sol.envelopes[s].emplace_back(p.begin(), p.end());
    });
    solution_ = std::move(sol);
  }
  return *solution_;
}

PnoiseSideband PnoiseAnalysis::sideband(int outIndex, int harmonic) const {
  TraceSpan span(Phase::kPnoise, "pnoise");
  PnoiseSideband sb;
  sb.harmonic = harmonic;
  {
    TraceSpan lptv(Phase::kLptv, "lptv_adjoint");
    PSMN_CHECK(outIndex >= 0 && static_cast<size_t>(outIndex) < sys_->size(),
               "bad output index");
    Cache& c = cache();
    const LptvInputs in{*sys_, *pss_, sources_, c.rows, recursionOmega(*pss_),
                        pool_};
    sb.transfer = std::visit(
        [&](const auto& cy) {
          return adjointTransfers(in, cy.factors,
                                  static_cast<size_t>(outIndex), harmonic);
        },
        c.cycle);
  }
  sb.contribution.reserve(sb.transfer.size());
  for (size_t s = 0; s < sb.transfer.size(); ++s) {
    const Real sigma = sources_[s].sigma;
    const Real contrib = std::norm(sb.transfer[s]) * (sigma * sigma);
    sb.contribution.push_back(contrib);
    sb.totalPsd += contrib;
  }
  return sb;
}

CplxVector PnoiseAnalysis::samples(int outIndex,
                                   std::span<const size_t> points) const {
  TraceSpan span(Phase::kPnoise, "pnoise");
  const size_t np = points.size();
  PSMN_CHECK(outIndex >= 0 && static_cast<size_t>(outIndex) < sys_->size(),
             "bad output index");
  PSMN_CHECK(np > 0, "no grid points to sample");
  const size_t last = *std::max_element(points.begin(), points.end());
  PSMN_CHECK(last < pss_->stepCount(), "grid point out of range");
  std::vector<std::vector<size_t>> requestsAt(last + 1);
  for (size_t i = 0; i < np; ++i) requestsAt[points[i]].push_back(i);

  const size_t out = static_cast<size_t>(outIndex);
  CplxVector samples(sources_.size() * np);
  walkEnvelopes(last, [&](size_t s, size_t k, auto p) {
    for (size_t i : requestsAt[k]) samples[s * np + i] = p[out];
  });
  return samples;
}

StatisticalWaveform PnoiseAnalysis::statistical(int outIndex) const {
  const size_t m = pss_->stepCount();
  StatisticalWaveform w;
  w.times.assign(pss_->times.begin(), pss_->times.begin() + m);
  w.nominal = pss_->waveform(outIndex);
  std::vector<size_t> grid(m);
  std::iota(grid.begin(), grid.end(), size_t{0});
  const CplxVector p = samples(outIndex, grid);  // p[s * m + k]
  w.sigma.assign(m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    Real var = 0.0;
    for (size_t s = 0; s < sources_.size(); ++s) {
      const Real sigma = sources_[s].sigma;
      var += std::norm(p[s * m + k]) * (sigma * sigma);
    }
    w.sigma[k] = std::sqrt(var);
  }
  return w;
}

}  // namespace psmn
