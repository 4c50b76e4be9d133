// Periodic steady-state (PSS) analysis via shooting Newton, for driven
// circuits (fixed period) and autonomous oscillators (period is an extra
// unknown, pinned by a phase condition).
//
// The integration inside shooting uses fixed-step backward Euler so that
// the state-transition (monodromy) matrix is exactly the product of the
// per-step companion Jacobians:
//   x_{k+1}: (G_{k+1} + C_{k+1}/h) dx_{k+1} = (C_k/h) dx_k
//   =>  Phi = prod_k J_k^{-1} (C_{k-1}/h).
// Shooting solves x(T; x0) = x0 by Newton on x0 with Jacobian (Phi - I).
// Each shooting iteration's period integration stores its linearization
// (G_k, C_k); only an iteration that did not close sweeps Phi over it
// afterwards, in one pooled pass (rf/step_factors.hpp). The converged
// orbit sweeps nothing: orbitMonodromy computes its Phi on demand.
// Stability of the orbit is NOT required (the comparator's regenerative
// metastable orbit has a Floquet multiplier >> 1 and converges fine),
// which is exactly why the paper's comparator testbench (Fig. 6) is
// tractable here while plain transient settling is slow.
#pragma once

#include "circuit/stdcell.hpp"
#include "engine/mna.hpp"
#include "engine/transient.hpp"
// DenseLU factors the dense systems built from a PssResult: the shooting
// (I - Phi) and bordered Jacobians here, the LPTV closure and the PPV
// bordered adjoint downstream. Kept in this header because its includers
// (perfbench/harness.cpp among them) reach DenseLU only through it.
#include "numeric/dense_lu.hpp"

namespace psmn {

struct PssOptions {
  int stepsPerPeriod = 400;
  int maxShootingIterations = 60;
  Real shootingTol = 1e-9;   // on max|x(T) - x0|
  /// Driven only: transient periods integrated from the start point when
  /// shooting from it fails, before shooting again (0 disables the
  /// fallback; the first attempt's error then propagates).
  int warmupCycles = 3;
  /// Optional execution runtime. The monodromy sweep of a shooting
  /// iteration that did not close splits its n columns into one block per
  /// slot, each carried through all M steps against the shared step factors
  /// (every column's arithmetic involves only that column, so results are
  /// bit-identical for every jobs count — see docs/architecture.md "RF
  /// parallelism"). The period integration itself stays serial: a single
  /// Newton path has no column parallelism.
  ThreadPool* pool = nullptr;
};

/// Reusable solver state for the shooting engines: the transient workspace
/// (pattern matrices, symbolic factorization, Newton scratch) plus the
/// charge state. One PssWorkspace is shared across every period integration
/// of a shooting solve — shooting iterations, the driven fallback's warm-up
/// cycles, and the finite-difference period derivative all reuse the same
/// symbolic factorization, and the monodromy sweeps start their step
/// factors from it. Tied to one MnaSystem, like TransientWorkspace.
struct PssWorkspace {
  TransientWorkspace tran;
  RealVector q, qd;        // charge state for the BE stepping kernel
};

struct PssResult {
  Real period = 0.0;
  Real t0 = 0.0;  // absolute start time of the stored period
  /// True for oscillator solutions: the LPTV recursion then runs complex
  /// at the offset frequency and applies the phase-mode spectral
  /// correction to the cyclic closure; on a driven orbit it runs real at
  /// w = 0 (see rf/pnoise.hpp).
  bool autonomous = false;
  /// Autonomous only: the phase-condition unknown and d x(T)/dT at the
  /// solution (used by the discrete-adjoint period sensitivity, rf/ppv).
  int phaseIndex = -1;
  RealVector dxdT;
  /// M+1 uniformly spaced points over one period; states[M] == states[0]
  /// to shooting tolerance.
  std::vector<Real> times;
  std::vector<RealVector> states;
  /// Linearization along the orbit at times[k], k=0..M: G_k and C_k on
  /// the system's pattern, as the period integration evaluated them. The
  /// monodromy (orbitMonodromy), LPTV and PPV solvers factor their step
  /// matrices from these.
  std::vector<RealSparse> gSpMats;
  std::vector<RealSparse> cSpMats;
  int shootingIterations = 0;
  /// Solve cost: the tally of the solve's one workspace, so it includes
  /// the partial work of period integrations that failed. Driven: every
  /// period integrated from the start point on — both shooting attempts
  /// and the fallback's warm-up (the converged iteration's integration is
  /// the stored orbit, so stats.steps == shootingIterations *
  /// stepsPerPeriod without a fallback, and (shootingIterations +
  /// warmupCycles) * stepsPerPeriod after one, when no integration failed
  /// partway). Autonomous: the period and dx/dT integrations of every
  /// shooting iteration (not the one that gives the solution's dxdT).
  /// stats.steps counts backward-Euler integration sub-steps of those
  /// periods; stats.solves and stats.refactorizations include the
  /// monodromy sweeps of the iterations that did not close (n * M columns
  /// and M step factors each); the converged iteration sweeps none.
  SolveStats stats;

  size_t stepCount() const { return times.empty() ? 0 : times.size() - 1; }
  Real stepSize() const { return period / static_cast<Real>(stepCount()); }

  /// Periodic samples (M points, last point excluded) of one unknown.
  RealVector waveform(int mnaIndex) const;
  /// Fourier coefficient X_N of that waveform.
  Cplx fourier(int mnaIndex, int harmonic) const;
};

/// Driven PSS: sources must be periodic with the given period (or DC).
/// Shooting starts from the DC point, or from `x0guess` when given. Only if
/// that attempt throws ConvergenceError (its first integration fails, or
/// maxShootingIterations runs out) are opt.warmupCycles periods integrated
/// from the same start point, and shooting runs again with a fresh budget.
/// shootingIterations counts both attempts.
PssResult solvePssDriven(const MnaSystem& sys, Real period,
                         const PssOptions& opt = {},
                         const RealVector* x0guess = nullptr);

/// Autonomous PSS: period is solved for by bordered shooting Newton on
/// (x0, T). `phaseIndex` selects the unknown whose initial value is frozen
/// as the phase condition. `x0guess` must be a point near the orbit and
/// `periodGuess` within roughly 20% of the true period: take both from a
/// warm-up transient (warmupRingOscillator). There is no recovery ladder,
/// so the guess must come from a warm-up stepped near the shooting grid's
/// step, period / stepsPerPeriod, wherever the orbit depends on the step:
/// the 63-stage ring warmed up at 20 ps settles 3% off the period of its
/// 15.8 ps grid and shooting from it stalls, while a 16 ps warm-up
/// converges in 6 iterations. (The 5-stage paper ring converges in 5 from
/// its default 10 ps warm-up on a 0.6 ps grid.) Throws ConvergenceError
/// when shooting does not close, with FailureDiagnostics: stage
/// "shooting/integration" or "shooting/stagnation", the iteration, and the
/// last orbit residual max|x(T) - x0|.
PssResult solvePssAutonomous(const MnaSystem& sys, Real periodGuess,
                             int phaseIndex, const RealVector& x0guess,
                             const PssOptions& opt = {});

/// The per-step Newton settings of every period integration (backward
/// Euler, 60 Newton iterations, and the shooting engines' own 1e-10
/// tolerances). Exposed so that a test replaying a period on integrateStep
/// uses the engine's settings.
TranOptions shootingStepOptions();

/// Utility: runs an `initCycles`-long transient at fixed step and returns
/// the final state (the standard way to seed shooting). `ws` (optional)
/// shares the solver workspace with a subsequent shooting solve.
RealVector pssWarmup(const MnaSystem& sys, Real period, int cycles,
                     const PssOptions& opt, const RealVector* x0 = nullptr,
                     PssWorkspace* ws = nullptr);

/// Integrates one period [t0, t0+T] with `steps` backward-Euler steps,
/// advancing `x` in place — the inner loop of the shooting engines. With
/// `orbit`, appends each of the steps + 1 points' state, G and C to its
/// states/gSpMats/cSpMats (what a monodromy sweep and the stored orbit
/// read). Without, once the workspace is warm (pattern copied, symbolic
/// factorization kept, buffers sized) a call performs no heap allocation.
/// Throws ConvergenceError when a step's Newton fails.
void integratePeriod(const MnaSystem& sys, RealVector& x, Real t0,
                     Real period, int steps, PssWorkspace& ws,
                     PssResult* orbit = nullptr);

/// Integrates one period like integratePeriod, then sweeps the
/// monodromy Phi = prod_k J_k^{-1} (C_{k-1}/h) over the period's stored
/// linearization — what a shooting iteration that did not close does,
/// exposed for the parallel-monodromy benches and goldens (`opt.pool` fans
/// the column blocks out). The step factors start from `ws`'s symbolic
/// factorization.
RealMatrix integrateMonodromy(const MnaSystem& sys, RealVector& x, Real t0,
                              Real period, int steps, const PssOptions& opt,
                              PssWorkspace& ws);

/// The monodromy Phi = prod_k J_k^{-1} (C_{k-1}/h) of a solved orbit, swept
/// on demand over its stored linearization with fresh step factors (one
/// factorization, then numeric refactors). `pool` fans the n columns out,
/// one block per slot through all M steps: bit-identical for every jobs
/// count.
RealMatrix orbitMonodromy(const PssResult& pss, ThreadPool* pool = nullptr);

/// Kicks a ring oscillator from its (metastable) DC point, free-runs it to
/// the limit cycle with backward Euler at step dt, and returns the warm
/// state plus a measured period estimate — the standard seed for
/// solvePssAutonomous. The phase index is the stage closest to mid-swing
/// at the final state.
struct RingWarmup {
  RealVector state;
  Real periodEstimate = 0.0;
  int phaseIndex = -1;
};
RingWarmup warmupRingOscillator(const MnaSystem& sys,
                                const RingOscillatorCircuit& osc,
                                Real runTime = 30e-9, Real dt = 10e-12);

}  // namespace psmn
