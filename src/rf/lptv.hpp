// Linear periodically time-varying (LPTV) small-signal solver on top of a
// PSS solution.
//
// The linearized response to an injection u(t) = b(t) e^{j w t} with b(t)
// T-periodic is x(t) = p(t) e^{j w t} with p(t) T-periodic, where p solves
//     d/dt [C(t) p] + (G(t) + j w C(t)) p = b(t),  p(0) = p(T).
// Backward-Euler on the PSS grid gives the block-cyclic system
//     K_k p_k - D_k p_{k-1} = b_k,   K_k = G_k + (1/h + j w) C_k,
//     D_k = C_{k-1}/h,               k = 1..M,  p_0 = p_M.
// Direct solve: pass 1 propagates the homogeneous and particular parts and
// closes the cycle via (I - B_M) p_0 = alpha_M, where B_M is the
// frequency-shifted monodromy; pass 2 walks each source's envelope from its
// closed p_0. Adjoint solve: one transposed cyclic solve yields the
// transfer of *every* source into one output harmonic (the "breakdown at no
// extra cost" the paper relies on, SS V).
//
// The orbit picks the scalar. A driven orbit solves the quasi-static
// system w = 0 in real arithmetic: K_k = G_k + C_k/h is the Jacobian
// shooting factored, B_M is the monodromy Phi, and the closure is a plain
// LU solve (the offset frequency only scales the sources' flicker PSDs,
// and w h < 1e-10 at 1 Hz on every paper grid). An autonomous orbit keeps
// the complex recursion at w = 2 pi offsetFreq, whose closure carries the
// oscillator phase-mode correction. Either way the outputs are complex;
// on a driven orbit every envelope and every N = 0 transfer has an exactly
// zero imaginary part.
//
// Every readout solves on demand and pays only for what it reads: the
// adjoint holds O(M n) state, and a sampled direct readout stops pass 2 at
// the last grid point it reads and keeps only those samples. The step
// factors (rf/step_factors.hpp, the store the shooting monodromy sweeps
// on) and the closed p_0 of every source are cached on first use and
// shared by later readouts, so const readouts fill caches: one solver
// serves one thread at a time (its pool fans each solve out internally).
//
// Mismatch sources enter with b(t) = -dF/dp - (d/dt + j w) dq/dp evaluated
// along the orbit (the Verilog-A pseudo-noise modulation of paper Fig. 4).
#pragma once

#include <memory>

#include "engine/mna.hpp"
#include "rf/pss.hpp"

namespace psmn {

struct LptvOptions {
  /// Optional execution runtime. Direct pass 1 partitions its n + ns
  /// columns (the homogeneous B_k plus every source's particular part),
  /// pass 2 its ns envelope chains, and the adjoint its columns [V_k | u_k]
  /// (n + 1, or n + 2 on a driven orbit at N != 0, where the complex
  /// Fourier weights split into a real and an imaginary column) into one
  /// block per slot, each carried through all M grid steps against the
  /// shared step factors; the adjoint then fans its per-source transfers.
  /// Every column's arithmetic involves only that column, so results are
  /// bit-identical for every jobs count (docs/architecture.md "RF
  /// parallelism").
  ThreadPool* pool = nullptr;
};

/// Periodic complex envelopes p_k, k = 0..M-1, one per source.
struct LptvSolution {
  /// The recursion's w: 0 on a driven orbit.
  Real omega = 0.0;
  size_t steps = 0;
  /// envelopes[s][k] is the full envelope vector of source s at grid k.
  std::vector<std::vector<CplxVector>> envelopes;

  /// Fourier coefficient P_N of output unknown `outIndex` for source s.
  Cplx harmonic(size_t sourceIdx, int outIndex, int n) const;
};

/// The cyclic LPTV system of one orbit, one source list and one offset
/// frequency (Hz).
class LptvSolver {
 public:
  LptvSolver(const MnaSystem& sys, const PssResult& pss,
             std::vector<InjectionSource> sources, Real offsetFreq,
             LptvOptions opt = {});
  ~LptvSolver();
  LptvSolver(LptvSolver&&) noexcept;
  LptvSolver& operator=(LptvSolver&&) noexcept;

  /// Adjoint method: transfer coefficients P_N[outIndex] for all sources,
  /// from one transposed cyclic solve.
  CplxVector solveAdjoint(int outIndex, int harmonic) const;

  /// Direct method: every source's full envelope p_0..p_{M-1}.
  LptvSolution solveDirect() const;

  /// Direct method, sampled: out[s * points.size() + i] is
  /// p_{points[i]}[outIndex] of source s. Pass 2 stops at the largest
  /// point and keeps only these samples. The values equal solveDirect's
  /// bit for bit.
  CplxVector sampleDirect(int outIndex, std::span<const size_t> points) const;

  const std::vector<InjectionSource>& sources() const { return sources_; }
  Real offsetFreq() const { return offsetFreq_; }
  const PssResult& pss() const { return *pss_; }

 private:
  struct Cache;
  Cache& cache() const;
  /// keep(s, k, p_k) sees every source's envelope p_k, k = 0..last, as a
  /// span of the orbit's scalar.
  template <class Keep>
  void walkEnvelopes(size_t last, const Keep& keep) const;

  const MnaSystem* sys_;
  const PssResult* pss_;
  std::vector<InjectionSource> sources_;
  Real offsetFreq_;
  LptvOptions opt_;
  mutable std::unique_ptr<Cache> cache_;
};

}  // namespace psmn
