// Periodic (cyclostationary) noise analysis — the engine behind the
// paper's mismatch analysis: the linear periodically time-varying (LPTV)
// small-signal system of one orbit and every readout of it.
//
// The paper turns each mismatch parameter into pseudo-noise with the
// flicker PSD sigma^2 / f and reads the pnoise sidebands at a 1 Hz offset,
// where that PSD is sigma^2 (SS III, Fig. 2). The offset is therefore a
// unit convention, not a parameter: PnoiseOptions::offsetFreq is the
// constant 1 Hz, and every readout scales a source's transfer by its sigma.
//
// The linearized response to an injection u(t) = b(t) e^{j w t} with b(t)
// T-periodic is x(t) = p(t) e^{j w t} with p(t) T-periodic, where p solves
//     d/dt [C(t) p] + (G(t) + j w C(t)) p = b(t),  p(0) = p(T).
// Backward-Euler on the PSS grid gives the block-cyclic system
//     K_k p_k - D_k p_{k-1} = b_k,   K_k = G_k + (1/h + j w) C_k,
//     D_k = C_{k-1}/h,               k = 1..M,  p_0 = p_M.
// Every readout runs one backward sweep of the n transposed columns
// Y_k = P_k^T (P_k maps b_k to the particular part at step M), which gives
// the frequency-shifted monodromy B_M = Phi and every source's
// alpha_s = sum_k Y_k^T b_k with no source carried through the period.
// The direct solve closes (I - B_M) p_0 = alpha_s for each source's p_0,
// and pass 2 walks its envelope from there. A sideband adds the nw
// particular columns of its adjoint (its Fourier weights at the output):
// one closure then yields the transfer of *every* source into that
// harmonic (the "breakdown at no extra cost" the paper relies on, SS V).
// On an oscillator the same sweep over the shooting step factors prices
// every source's period sensitivity (the discretely consistent form of
// Demir's perturbation projection vector, PPV).
//
// The orbit picks the scalar. A driven orbit solves the quasi-static
// system w = 0 in real arithmetic: K_k = G_k + C_k/h is the Jacobian
// shooting factored, B_M is the monodromy Phi, and the closure is a plain
// LU solve (w h < 1e-10 at 1 Hz on every paper grid). Its recursion never
// sees the offset, so a driven orbit of any fundamental is accepted. An
// autonomous orbit keeps the complex recursion at w = 2 pi offsetFreq,
// whose closure carries the oscillator phase-mode correction; it must
// oscillate at 100 offsets or more. Either way the outputs are complex;
// on a driven orbit every envelope and every N = 0 transfer has an exactly
// zero imaginary part.
//
// Mismatch sources enter with b(t) = -dF/dp - (d/dt + j w) dq/dp evaluated
// along the orbit (the Verilog-A pseudo-noise modulation of paper Fig. 4).
//
// Every readout solves on demand and pays only for what it reads: a
// sideband is one sweep of n + nw columns holding O(n^2 + ns n) state,
// envelope samples and sigma(t) stop pass 2 at the last grid point they
// read and keep only what they read, and only solution() stores every
// envelope. The step factors (rf/step_factors.hpp, the store the shooting
// monodromy sweeps on) and the closed p_0 of every source are cached on
// first use and shared by later readouts, so const readouts fill caches:
// one analysis serves one thread at a time (its pool fans each solve out
// internally).
//
// tests/test_rf_sparse.cpp checks every readout against a DenseLU rebuild
// of the same cyclic system (PPV against a dense rebuild of the shooting
// adjoint), and tests/test_mc_validation.cpp checks sigma(t) against the
// sample sigma of seeded Monte-Carlo PSS re-solves.
#pragma once

#include <memory>
#include <optional>

#include "engine/mna.hpp"
#include "rf/pss.hpp"

namespace psmn {

struct PnoiseOptions {
  /// Hz: the paper's pseudo-noise probe, where every source's flicker PSD
  /// sigma^2 / f equals sigma^2. It sets an oscillator's recursion
  /// frequency (a driven orbit's runs at 0) and nothing else.
  static constexpr Real offsetFreq = 1.0;
  /// Optional execution runtime. The cycle sweep of every readout fans,
  /// one window of grid steps at a time, every source's injections over
  /// the slots and then its n + nw columns [Y_k | U_k] in one block per
  /// slot (nw = 0 for the direct readouts and PPV; 1 on an oscillator or at
  /// N = 0; 2 on a driven orbit at N != 0, where the complex Fourier
  /// weights split into a real and an imaginary column), each block carried
  /// through all its grid steps against the shared step factors; pass 2
  /// partitions its ns envelope chains the same way. Every column's
  /// arithmetic involves only that column, so results are bit-identical for
  /// every jobs count (docs/architecture.md "RF parallelism").
  ThreadPool* pool = nullptr;
};

/// Per-(output, sideband) noise readout.
struct PnoiseSideband {
  int harmonic = 0;
  Real offsetFreq = PnoiseOptions::offsetFreq;
  Real totalPsd = 0.0;                // sum of contributions
  std::vector<Cplx> transfer;         // per source: P_N[out]
  std::vector<Real> contribution;     // per source: |P_N|^2 * sigma^2
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

/// Time-domain cyclostationary noise of one output along the orbit (paper
/// Fig. 8 "statistical waveform"): with quasi-static pseudo-noise the
/// envelope p^{(i)} is the per-parameter sensitivity of the whole orbit, so
///   sigma(t_k)^2 = sum_i |p^{(i)}_k[out]|^2 * sigma_i^2.
struct StatisticalWaveform {
  std::vector<Real> times;  // one period
  RealVector nominal;       // PSS waveform
  RealVector sigma;         // sigma(t)
};

/// The cyclic LPTV system of one orbit and one source list, and its
/// readouts.
class PnoiseAnalysis {
 public:
  PnoiseAnalysis(const MnaSystem& sys, const PssResult& pss,
                 PnoiseOptions opt = {});

  /// Custom source-list variant, e.g. correlated-mismatch composite
  /// sources from CorrelatedMismatch::transformSources (paper SS III-C).
  PnoiseAnalysis(const MnaSystem& sys, const PssResult& pss,
                 std::vector<InjectionSource> sources, PnoiseOptions opt = {});
  ~PnoiseAnalysis();
  PnoiseAnalysis(PnoiseAnalysis&&) noexcept;
  PnoiseAnalysis& operator=(PnoiseAnalysis&&) noexcept;

  /// Solves nothing: every readout solves on demand. Kept for callers that
  /// still time an LPTV stage of their own around it.
  void run() {}

  const std::vector<InjectionSource>& sources() const { return sources_; }
  const PssResult& pss() const { return *pss_; }
  static constexpr Real offsetFreq() { return PnoiseOptions::offsetFreq; }

  /// Every source's full envelope (direct solve on first call, then kept).
  const LptvSolution& solution() const;

  /// Readout at output unknown `outIndex`, sideband N (0 = baseband), from
  /// one cycle sweep and one adjoint closure: the transfer coefficients
  /// P_N[outIndex] of every source.
  PnoiseSideband sideband(int outIndex, int harmonic) const;

  /// dT/dp of every source (seconds per unit parameter; df/dp is
  /// -f0^2 dT/dp) on an autonomous orbit, from the implicit function
  /// theorem on the shooting system
  ///   H(x0, T; p) = [ x(T; x0, p) - x0 ;  x0[phase] - c ] = 0:
  /// dT/dp_s = -w_x^T alpha_s, where [w_x; w_T] solves the transposed
  /// bordered system
  ///   [ Phi - I   dx(T)/dT ]^T [w_x]   [0]
  ///   [ e_phase^T     0    ]   [w_T] = [1]
  /// and Phi and every alpha_s come from one cycle sweep over the real shooting
  /// step factors K_k = G_k + C_k/h (w = 0), even where the sidebands run
  /// complex. Y_k w_x is the discrete PPV waveform. Throws on a driven
  /// orbit.
  RealVector periodSensitivity() const;

  /// Envelope samples of every source at output `outIndex` and the grid
  /// points `points`: out[s * points.size() + i] is p_{points[i]}[outIndex]
  /// of source s. Pass 2 stops at the largest point and keeps only these
  /// samples; the values equal solution()'s bit for bit.
  CplxVector samples(int outIndex, std::span<const size_t> points) const;

  /// sigma(t) of output `outIndex` at every grid point of the period, from
  /// one direct pass over the period that keeps one real term per source
  /// and grid point (no envelope is stored).
  StatisticalWaveform statistical(int outIndex) const;

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
  ThreadPool* pool_;
  mutable std::unique_ptr<Cache> cache_;
  mutable std::optional<LptvSolution> solution_;
};

}  // namespace psmn
