// Finite-difference verification harness for device stamps.
//
// For a finalized netlist, verify at randomized bias points that
//   * G == dF/dx  (central difference of the stamped F vector),
//   * C == dQ/dx  (central difference of the stamped Q vector),
//   * the mismatch injection columns dF/dp, dQ/dp (mismatchStampF/Q)
//     match central differences of F/Q under setMismatchDelta.
// This is the netlist-level contract the Newton solvers and the
// sensitivity/pseudo-noise flows rely on: any analytic-derivative typo in
// any device shows up as a disagreement here. Every evaluation goes
// through MnaSystem, i.e. through the devices' declared stamp slots, and
// at each bias point the sparse evaluation must equal the dense one
// exactly -- so a wrong or missing declaration fails here too.
//
// Numerics: differences use Richardson-extrapolated central differences
// (steps h and h/2, error O(h^4)); plain O(h^2) differencing is not enough
// at 1e-6 relative because smooth-clamp constructions (MOSFET body effect,
// BJT Early floor) concentrate curvature ~1/eps^2 in their transition
// regions. Unknown steps are h_j = h*(1+|x_j|); mismatch-parameter steps
// scale with the parameter's own sigma (an absolute step would be 1e6x
// too coarse for a 1e-12 F capacitor and could drive positive-definite
// parameters negative). Each entry must satisfy
//   |a - fd| <= relTol * (max(|a|, |fd|) + colScale) + noise
// where colScale is the largest analytic magnitude in the perturbed
// column (keeps roundoff on exact-zero entries from failing the check
// while a genuinely missing stamp — analytic 0, FD finite — still does)
// and noise = 1e-14 * sum|perturbed vector entries| / h bounds the FD
// roundoff: a derivative smaller than the difference of two large
// residuals can resolve is vacuously accepted (e.g. a 1e-17 A/V entry
// against mA-scale node currents), which is an FD resolution limit, not
// a stamp-consistency statement.
//
// Bias points are drawn from a fixed seed, so the (measure-zero) C1 kinks
// of the limited exponentials and the MOSFET triode/saturation join are
// never straddled and the check is deterministic run to run.
#pragma once

#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/mna.hpp"
#include "numeric/dense_matrix.hpp"

namespace psmn::fdcheck {

struct FdOptions {
  Real relTol = 1e-6;       // per-entry relative tolerance
  /// Absolute floor, default off. The per-entry noise bound below models
  /// FD roundoff from the assembled vector entries; at a SOLVED operating
  /// point the residual entries are ~1e-9 while the differences are
  /// limited by cancellation of the device-scale (mA) partial sums behind
  /// them, so deck-level checks at a DC solution set a floor (~1e-14,
  /// still many orders below the signal scale) under which entries pass
  /// vacuously. Keep 0 for the randomized per-device sweeps.
  Real absTol = 0.0;
  Real h = 1e-6;            // central-difference base step
  int biasPoints = 3;       // randomized iterates per netlist
  uint64_t seed = 20070604;  // fixed: deterministic, kink-free points
  Real biasSpan = 1.0;      // node voltages uniform in [-span, span]
  Real branchSpan = 1e-3;   // branch currents uniform in [-span, span]
  Real time = 0.0;
};

/// One full assembly at iterate x through the system's slot path: F, Q
/// and (optionally) dense G, C.
inline void evalAll(const MnaSystem& sys, const RealVector& x,
                    const FdOptions& opt, RealVector& f, RealVector& q,
                    RealMatrix* g, RealMatrix* c) {
  sys.evalDense(x, opt.time, &f, &q, g, c);
}

namespace detail {

/// A few tens of ulps: multiplier for the FD roundoff bound.
inline constexpr Real kNoiseEps = 1e-14;

inline bool entryOk(Real a, Real fd, Real colScale, Real noise, Real relTol,
                    Real absTol) {
  const Real err = std::fabs(a - fd);
  return err <= relTol * (std::max(std::fabs(a), std::fabs(fd)) + colScale) +
                    noise + absTol;
}

inline Real columnScale(const RealMatrix& m, size_t col) {
  Real s = 0.0;
  for (size_t r = 0; r < m.rows(); ++r) {
    s = std::max(s, std::fabs(m(r, col)));
  }
  return s;
}

inline Real vectorScale(const RealVector& v) {
  Real s = 0.0;
  for (Real e : v) s = std::max(s, std::fabs(e));
  return s;
}

inline RealVector randomIterate(const Netlist& nl, std::mt19937_64& rng,
                                const FdOptions& opt) {
  const size_t n = nl.unknownCount();
  const size_t nodes = n - nl.branchCount();
  RealVector x(n);
  std::uniform_real_distribution<Real> nodeDist(-opt.biasSpan, opt.biasSpan);
  std::uniform_real_distribution<Real> branchDist(-opt.branchSpan,
                                                  opt.branchSpan);
  for (size_t j = 0; j < n; ++j) {
    x[j] = j < nodes ? nodeDist(rng) : branchDist(rng);
  }
  return x;
}

}  // namespace detail

/// Checks G == dF/dx and C == dQ/dx at iterate x, and that the sparse
/// evaluation's G, C, F, Q equal the dense ones exactly. Appends one
/// message per offending entry (capped) to `failures`.
inline void checkJacobiansAt(const MnaSystem& sys, const RealVector& x,
                             const FdOptions& opt,
                             std::vector<std::string>& failures) {
  const Netlist& nl = sys.netlist();
  const size_t n = sys.size();
  RealVector f0, q0;
  RealMatrix g, c;
  evalAll(sys, x, opt, f0, q0, &g, &c);

  RealVector fs, qs;
  RealSparse gs, cs;
  sys.evalSparse(x, opt.time, &fs, &qs, &gs, &cs);
  const RealMatrix gsd = gs.toDense(), csd = cs.toDense();
  for (size_t i = 0; i < n; ++i) {
    bool same = fs[i] == f0[i] && qs[i] == q0[i];
    for (size_t j = 0; j < n; ++j) {
      same = same && gsd(i, j) == g(i, j) && csd(i, j) == c(i, j);
    }
    if (!same) {
      failures.push_back("sparse evaluation differs from dense in row " +
                         nl.unknownName(i));
    }
  }

  RealVector fp1, qp1, fm1, qm1, fp2, qp2, fm2, qm2;
  for (size_t j = 0; j < n; ++j) {
    const Real hj = opt.h * (1.0 + std::fabs(x[j]));
    RealVector xs = x;
    xs[j] = x[j] + hj;
    evalAll(sys, xs, opt, fp1, qp1, nullptr, nullptr);
    xs[j] = x[j] - hj;
    evalAll(sys, xs, opt, fm1, qm1, nullptr, nullptr);
    xs[j] = x[j] + 0.5 * hj;
    evalAll(sys, xs, opt, fp2, qp2, nullptr, nullptr);
    xs[j] = x[j] - 0.5 * hj;
    evalAll(sys, xs, opt, fm2, qm2, nullptr, nullptr);
    const Real gScale = detail::columnScale(g, j);
    const Real cScale = detail::columnScale(c, j);
    for (size_t i = 0; i < n; ++i) {
      // Richardson: (4*D(h/2) - D(h)) / 3, error O(h^4).
      const Real fdG =
          (8.0 * (fp2[i] - fm2[i]) - (fp1[i] - fm1[i])) / (6.0 * hj);
      const Real fdC =
          (8.0 * (qp2[i] - qm2[i]) - (qp1[i] - qm1[i])) / (6.0 * hj);
      const Real noiseG = detail::kNoiseEps / hj *
                          (std::fabs(fp1[i]) + std::fabs(fm1[i]) +
                           std::fabs(fp2[i]) + std::fabs(fm2[i]));
      const Real noiseC = detail::kNoiseEps / hj *
                          (std::fabs(qp1[i]) + std::fabs(qm1[i]) +
                           std::fabs(qp2[i]) + std::fabs(qm2[i]));
      if (!detail::entryOk(g(i, j), fdG, gScale, noiseG, opt.relTol,
                            opt.absTol)) {
        std::ostringstream os;
        os << "G(" << nl.unknownName(i) << ", " << nl.unknownName(j)
           << "): analytic " << g(i, j) << " vs FD " << fdG;
        failures.push_back(os.str());
      }
      if (!detail::entryOk(c(i, j), fdC, cScale, noiseC, opt.relTol,
                            opt.absTol)) {
        std::ostringstream os;
        os << "C(" << nl.unknownName(i) << ", " << nl.unknownName(j)
           << "): analytic " << c(i, j) << " vs FD " << fdC;
        failures.push_back(os.str());
      }
    }
  }
}

/// Checks every device's dF/dp and dQ/dp columns against central
/// differences of the assembled F/Q under setMismatchDelta (centered at
/// the current deltas, normally zero).
inline void checkMismatchDerivativesAt(const MnaSystem& sys,
                                       const RealVector& x,
                                       const FdOptions& opt,
                                       std::vector<std::string>& failures) {
  const Netlist& nl = sys.netlist();
  const size_t n = sys.size();
  RealVector bf(n), bq(n), scratch(n);
  RealVector fp, qp, fm, qm;
  for (const auto& ref : nl.mismatchParams()) {
    Device& dev = *ref.device;
    const size_t k = ref.index;

    bf.assign(n, 0.0);
    scratch.assign(n, 0.0);
    {
      Stamper s(x, opt.time, n);
      s.attachVectors(&bf, &scratch);
      dev.mismatchStampF(k, s);
    }
    bq.assign(n, 0.0);
    scratch.assign(n, 0.0);
    {
      // mismatchStampQ uses addQ, so bq rides in the stamper's q slot.
      Stamper s(x, opt.time, n);
      s.attachVectors(&scratch, &bq);
      dev.mismatchStampQ(k, s);
    }

    // Step in the parameter's own units: a fixed fraction of its sigma
    // keeps the perturbation physical (never drives R/C/beta negative)
    // and well-scaled for parameters living at 1e-12.
    const Real d0 = dev.mismatchDelta(k);
    const Real hd =
        ref.param.sigma > 0.0 ? 1e-3 * ref.param.sigma : opt.h;
    RealVector fp2, qp2, fm2, qm2;
    dev.setMismatchDelta(k, d0 + hd);
    evalAll(sys, x, opt, fp, qp, nullptr, nullptr);
    dev.setMismatchDelta(k, d0 - hd);
    evalAll(sys, x, opt, fm, qm, nullptr, nullptr);
    dev.setMismatchDelta(k, d0 + 0.5 * hd);
    evalAll(sys, x, opt, fp2, qp2, nullptr, nullptr);
    dev.setMismatchDelta(k, d0 - 0.5 * hd);
    evalAll(sys, x, opt, fm2, qm2, nullptr, nullptr);
    dev.setMismatchDelta(k, d0);

    const Real fScale = detail::vectorScale(bf);
    const Real qScale = detail::vectorScale(bq);
    for (size_t i = 0; i < n; ++i) {
      const Real fdF =
          (8.0 * (fp2[i] - fm2[i]) - (fp[i] - fm[i])) / (6.0 * hd);
      const Real fdQ =
          (8.0 * (qp2[i] - qm2[i]) - (qp[i] - qm[i])) / (6.0 * hd);
      const Real noiseF = detail::kNoiseEps / hd *
                          (std::fabs(fp[i]) + std::fabs(fm[i]) +
                           std::fabs(fp2[i]) + std::fabs(fm2[i]));
      const Real noiseQ = detail::kNoiseEps / hd *
                          (std::fabs(qp[i]) + std::fabs(qm[i]) +
                           std::fabs(qp2[i]) + std::fabs(qm2[i]));
      if (!detail::entryOk(bf[i], fdF, fScale, noiseF, opt.relTol,
                          opt.absTol)) {
        std::ostringstream os;
        os << "dF/dp[" << ref.param.name << "](" << nl.unknownName(i)
           << "): analytic " << bf[i] << " vs FD " << fdF;
        failures.push_back(os.str());
      }
      if (!detail::entryOk(bq[i], fdQ, qScale, noiseQ, opt.relTol,
                          opt.absTol)) {
        std::ostringstream os;
        os << "dQ/dp[" << ref.param.name << "](" << nl.unknownName(i)
           << "): analytic " << bq[i] << " vs FD " << fdQ;
        failures.push_back(os.str());
      }
    }
  }
}

/// Full sweep: Jacobians + mismatch columns at `biasPoints` seeded random
/// iterates. Returns human-readable failure messages (empty = pass).
inline std::vector<std::string> checkNetlist(Netlist& nl,
                                             const FdOptions& opt = {}) {
  const MnaSystem sys(nl);
  std::vector<std::string> failures;
  std::mt19937_64 rng(opt.seed);
  for (int p = 0; p < opt.biasPoints; ++p) {
    const RealVector x = detail::randomIterate(nl, rng, opt);
    const size_t before = failures.size();
    checkJacobiansAt(sys, x, opt, failures);
    checkMismatchDerivativesAt(sys, x, opt, failures);
    if (failures.size() > before) {
      std::ostringstream os;
      os << "(" << failures.size() - before << " failures at bias point " << p
         << ")";
      failures.push_back(os.str());
    }
    if (failures.size() > 40) break;  // enough to diagnose
  }
  return failures;
}

}  // namespace psmn::fdcheck
