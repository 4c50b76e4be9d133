// Ablation C (paper Fig. 5): shooting-Newton PSS vs brute-force transient
// settling for reaching the comparator testbench's periodic steady state.
//
// The paper's Fig. 5 argument: the pseudo-noise effects only matter on the
// final periodic orbit; a transient noise analysis wastes its effort
// simulating the settling. Here we measure how many clock cycles the
// transient route needs to reach a given periodicity residual |x(T)-x0|
// versus the cycles (integrations) consumed by shooting.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/stdcell.hpp"
#include "engine/dc.hpp"
#include "rf/pss.hpp"
#include "util/units.hpp"

using namespace psmn;
using namespace psmn::benchutil;

namespace {

Real periodicityResidual(const MnaSystem& sys, const RealVector& x0, Real T,
                         const PssOptions& opt) {
  const RealVector xT = pssWarmup(sys, T, 1, opt, &x0);
  Real r = 0.0;
  for (size_t i = 0; i < x0.size(); ++i) {
    r = std::max(r, std::fabs(xT[i] - x0[i]));
  }
  return r;
}

}  // namespace

int main() {
  header("Ablation C: shooting PSS vs brute-force settling (comparator, "
         "offset testbench)");
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto tb = buildComparatorTestbench(nl, kit);
  MnaSystem sys(nl);
  const Real T = tb.clkPeriod;
  PssOptions popt;
  popt.stepsPerPeriod = 400;

  // Start from an intentionally bad state: a 3-sigma-ish offset preloaded
  // on the integrator (what a fresh Monte-Carlo sample faces).
  auto* m2 = tb.comp.fet("M2");
  m2->setMismatchDelta(0, 0.02);  // 20 mV input-pair offset

  // Brute-force settling: cycles until |x(T)-x0| < tol. The loop starts
  // at power-up (integrator at vos = 0), which is what a Monte-Carlo
  // sample faces: the DC solve of *this* tamed comparator happens to
  // pre-balance the offset through leakage, a shortcut the paper's
  // strongly regenerative comparator does not offer (see EXPERIMENTS.md).
  Stopwatch swTran;
  RealVector x;
  {
    DcOptions dopt;
    x = solveDc(sys, dopt).x;
    x[tb.vosIndex] = 0.0;
    x = pssWarmup(sys, T, 1, popt, &x);
  }
  const Real tol = 1e-7;
  int cycles = 1;
  Real res = 1.0;
  std::printf("%-28s %14s\n", "transient settling", "|x(T)-x0|");
  for (; cycles < 400; ++cycles) {
    const RealVector xNext = pssWarmup(sys, T, 1, popt, &x);
    res = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      res = std::max(res, std::fabs(xNext[i] - x[i]));
    }
    x = xNext;
    if (cycles % 25 == 0 || res < tol) {
      std::printf("  after %4d cycles          %14s\n", cycles,
                  formatEng(res, 3).c_str());
    }
    if (res < tol) break;
  }
  const double tTran = swTran.seconds();

  // Shooting from the DC point; the 5 warm-up cycles run only if that
  // first attempt fails.
  Stopwatch swShoot;
  PssOptions sopt = popt;
  sopt.warmupCycles = 5;
  sopt.shootingTol = tol;
  const PssResult pss = solvePssDriven(sys, T, sopt);
  const double tShoot = swShoot.seconds();
  const Real shootRes = periodicityResidual(sys, pss.states[0], T, popt);
  // Every period the solve integrated, warm-up included if it ran.
  const int shootCycles =
      static_cast<int>(pss.stats.steps / sopt.stepsPerPeriod);
  m2->setMismatchDelta(0, 0.0);

  rule();
  std::printf("transient: %4d cycles, %6.2fs to reach |x(T)-x0| < %s\n",
              cycles, tTran, formatEng(tol, 1).c_str());
  std::printf("shooting:  %4d cycles integrated (%d Newton iterations),\n"
              "           %6.2fs, final residual %s\n",
              shootCycles, pss.shootingIterations, tShoot,
              formatEng(shootRes, 2).c_str());
  std::printf("cycle-count advantage: %.1fx   wall-clock advantage: %.1fx\n",
              static_cast<double>(cycles) / shootCycles, tTran / tShoot);
  std::printf("\n(Each Monte-Carlo sample pays the transient column; the "
              "pseudo-noise analysis\npays the shooting column once — the "
              "core of the paper's Table II speedup.)\n");
  return 0;
}
