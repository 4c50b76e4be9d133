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
// Each period integration stores its linearization (G_k, C_k); only an
// iteration that did not close sweeps Phi over it afterwards, in one pooled
// pass (rf/step_factors.hpp). The converged orbit sweeps nothing:
// orbitMonodromy computes its Phi on demand.
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
  Real gshunt = 0.0;
  Real relax = 1.0;          // damping on the shooting update
  // Inner Newton controls (per integration step).
  int maxNewton = 60;
  Real newtonResidualTol = 1e-10;
  Real newtonUpdateTol = 1e-10;
  Real newtonMaxStep = 0.5;  // dx clamp (V)
  /// Autonomous shooting only: per-iteration trust region on the period
  /// update, as a fraction of the current period (the dT analog of
  /// newtonMaxStep; keeps far-off starts from running away).
  Real periodMaxRelStep = 0.1;
  /// Autonomous only: converged-period bracket guard (0 disables). When
  /// set, a converged period farther than this relative distance from the
  /// period guess is rejected with ConvergenceError — and classified as a
  /// multi-wave / subharmonic mode collapse when it lands near guess/k for
  /// integer k >= 2 (the signature of a ring settling on k circulating
  /// waves; the bordered-Jacobian pivot ratio lands in the diagnostics as
  /// supporting evidence, since a degenerate mode drives it toward 0).
  Real periodBracketRel = 0.0;
  /// Autonomous only: relaxed-circuit shooting homotopy used when plain
  /// shooting fails (0 disables). The solve is re-anchored on a damped
  /// variant of the circuit (gshunt = shuntHomotopyStart, smoother and more
  /// sinusoidal orbit), then the shunt is relaxed rung by rung toward
  /// opt.gshunt with (x0, T) carried forward as the next rung's guess.
  int shuntHomotopyRungs = 3;
  Real shuntHomotopyStart = 1e-4;
  bool quiet = true;
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
  /// True for oscillator solutions: the LPTV solver then applies the
  /// phase-mode spectral correction to the cyclic closure (see lptv.cpp).
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
  /// Solve cost. Driven: every period integrated from the start point on —
  /// both shooting attempts and the fallback's warm-up (the converged
  /// iteration's integration is the stored orbit, so stats.steps ==
  /// shootingIterations * stepsPerPeriod without a fallback, and
  /// (shootingIterations + warmupCycles) * stepsPerPeriod after one, when
  /// no integration failed partway). Autonomous: the whole solve including
  /// homotopy rungs and the dx/dT integrations inside shooting. stats.steps
  /// counts backward-Euler integration sub-steps of those periods;
  /// stats.solves and stats.refactorizations include the monodromy sweeps
  /// of the iterations that did not close (n * M columns and M step
  /// factors each); the converged iteration sweeps none.
  SolveStats stats;
  /// Autonomous only: plain shooting failed and the relaxed-circuit
  /// homotopy ladder produced this solution.
  bool usedShuntHomotopy = false;
  /// solveRingPss only: how many times the warmup orbit was rebuilt from
  /// the railed alternating state to escape a multi-wave mode.
  int modeRestarts = 0;

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

/// Autonomous PSS: period is solved for. `phaseIndex` selects the unknown
/// whose initial value is frozen as the phase condition; `x0guess` must be
/// a point near the orbit (e.g. from a warmup transient) and `periodGuess`
/// within roughly 20% of the true period.
PssResult solvePssAutonomous(const MnaSystem& sys, Real periodGuess,
                             int phaseIndex, const RealVector& x0guess,
                             const PssOptions& opt = {});

/// Utility: runs an `initCycles`-long transient at fixed step and returns
/// the final state (the standard way to seed shooting). `ws` (optional)
/// shares the solver workspace with a subsequent shooting solve.
RealVector pssWarmup(const MnaSystem& sys, Real period, int cycles,
                     const PssOptions& opt, const RealVector* x0 = nullptr,
                     PssWorkspace* ws = nullptr);

/// Integrates one period [t0, t0+T] with `steps` backward-Euler steps,
/// advancing `x` in place — the inner kernel of the shooting engines,
/// exposed for reuse and for the allocation tests: once the workspace is
/// warm (pattern copied, symbolic factorization kept, buffers sized) a
/// call performs no heap allocation.
void integratePeriodInPlace(const MnaSystem& sys, RealVector& x, Real t0,
                            Real period, int steps, const PssOptions& opt,
                            PssWorkspace& ws);

/// Integrates one period like integratePeriodInPlace, then sweeps the
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
/// the limit cycle with backward Euler, and returns the warm state plus a
/// measured period estimate — the standard seed for solvePssAutonomous.
struct RingWarmup {
  RealVector state;
  Real periodEstimate = 0.0;
  int phaseIndex = -1;
};
RingWarmup warmupRingOscillator(const MnaSystem& sys,
                                const RingOscillatorCircuit& osc,
                                Real runTime = 30e-9, Real dt = 10e-12);

/// Number of circulating waves on a ring-oscillator state: counts the
/// adjacent same-polarity stage pairs around the cycle (1 = fundamental).
/// An odd-N inverter ring cannot alternate perfectly, so every snapshot
/// has an odd number of "defect" adjacencies — one per circulating
/// transition front, and the count is conserved as the fronts travel.
/// Long rings kicked from DC routinely settle on mode 3 or 5.
int countRingModes(const MnaSystem& sys, const RingOscillatorCircuit& osc,
                   std::span<const Real> state);

/// Warmup that forces the fundamental mode: starts from the railed
/// alternating state (stage i at vdd/0), whose single defect — automatic
/// from odd parity — seeds exactly one circulating front, then free-runs
/// to the limit cycle like warmupRingOscillator.
RingWarmup modeCorrectedRingWarmup(const MnaSystem& sys,
                                   const RingOscillatorCircuit& osc,
                                   Real runTime = 30e-9, Real dt = 10e-12);

/// Fundamental-mode-anchored autonomous PSS for ring oscillators: warmup,
/// mode check (countRingModes), shooting with the period-bracket guard
/// armed, and — when the warmup or the converged orbit lands on a
/// multi-wave mode — a bounded restart from modeCorrectedRingWarmup.
/// PssResult::modeRestarts reports the rebuilds.
PssResult solveRingPss(const MnaSystem& sys, const RingOscillatorCircuit& osc,
                       const PssOptions& opt = {}, Real warmRunTime = 30e-9,
                       Real warmDt = 10e-12);

}  // namespace psmn
