// Linear periodically time-varying (LPTV) small-signal solver on top of a
// PSS solution.
//
// The linearized response to an injection u(t) = b(t) e^{j w t} with b(t)
// T-periodic is x(t) = p(t) e^{j w t} with p(t) T-periodic, where p solves
//     d/dt [C(t) p] + (G(t) + j w C(t)) p = b(t),  p(0) = p(T).
// Backward-Euler on the PSS grid gives the block-cyclic system
//     K_k p_k - D_k p_{k-1} = b_k,   K_k = G_k + (1/h + j w) C_k,
//     D_k = C_{k-1}/h,               k = 1..M,  p_0 = p_M.
// Direct solve: propagate particular/homogeneous parts and close the cycle
// via (I - B_M) p_0 = alpha_M, where B_M is the frequency-shifted monodromy.
// Adjoint solve: one transposed cyclic solve yields the transfer of *every*
// source into one output harmonic (the "breakdown at no extra cost" the
// paper relies on, SS V).
//
// Mismatch sources enter with b(t) = -dF/dp - (d/dt + j w) dq/dp evaluated
// along the orbit (the Verilog-A pseudo-noise modulation of paper Fig. 4);
// physical noise sources enter with their sqrt-PSD-modulated stamps.
#pragma once

#include "engine/mna.hpp"
#include "rf/pss.hpp"

namespace psmn {

struct LptvOptions {
  /// Optional execution runtime. solveDirect partitions its n + ns columns
  /// (the homogeneous B_k plus every source's particular part) and then
  /// its ns envelope chains into one block per slot, each carried through
  /// all M grid steps against the shared step factors; solveAdjoint
  /// partitions its V_k columns per step and its per-source transfers.
  /// Every column's arithmetic involves only that column, so results are
  /// bit-identical for every jobs count (docs/architecture.md "RF
  /// parallelism").
  ThreadPool* pool = nullptr;
};

/// Periodic complex envelopes p_k, k = 0..M-1, one per source.
struct LptvSolution {
  Real omega = 0.0;
  size_t steps = 0;
  /// envelopes[s][k] is the full envelope vector of source s at grid k.
  std::vector<std::vector<CplxVector>> envelopes;

  /// Fourier coefficient P_N of output unknown `outIndex` for source s.
  Cplx harmonic(size_t sourceIdx, int outIndex, int n) const;
};

class LptvSolver {
 public:
  LptvSolver(const MnaSystem& sys, const PssResult& pss,
             LptvOptions opt = {});

  /// Direct method: envelopes for all sources at offset frequency f (Hz).
  LptvSolution solveDirect(std::span<const InjectionSource> sources,
                           Real offsetFreq) const;

  /// Adjoint method: transfer coefficients P_N[outIndex] for all sources,
  /// computed from one transposed cyclic solve.
  CplxVector solveAdjoint(std::span<const InjectionSource> sources,
                          Real offsetFreq, int outIndex, int harmonic) const;

  const PssResult& pss() const { return *pss_; }

 private:
  const MnaSystem* sys_;
  const PssResult* pss_;
  LptvOptions opt_;
};

}  // namespace psmn
