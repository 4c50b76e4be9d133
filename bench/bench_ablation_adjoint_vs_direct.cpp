// Ablation B: adjoint vs direct LPTV noise analysis.
//
// The paper leans on the per-source contribution breakdown being free
// (SS V: "the simulator does not need to perform any additional
// simulation"). That is an adjoint property: one transposed cyclic solve
// prices every source's transfer into one (output, sideband) functional,
// and PnoiseAnalysis::sideband runs exactly that solve. The direct method
// (PnoiseAnalysis::solution) stores every source's full envelope, ns x M x
// n complex, and then prices any functional with a Fourier sum over it.
// This bench checks that the two agree on the comparator testbench and
// prints what each costs: one functional, then nine more.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/stdcell.hpp"
#include "rf/pnoise.hpp"
#include "rf/pss.hpp"
#include "util/units.hpp"

using namespace psmn;
using namespace psmn::benchutil;

namespace {

/// The sideband readout from stored envelopes: transfers by Fourier sum.
Real directPsd(const PnoiseAnalysis& pn, int out, int harmonic) {
  const LptvSolution& sol = pn.solution();
  Real psd = 0.0;
  for (size_t s = 0; s < pn.sources().size(); ++s) {
    psd += std::norm(sol.harmonic(s, out, harmonic)) *
           pn.sources()[s].psd(pn.offsetFreq());
  }
  return psd;
}

}  // namespace

int main() {
  header("Ablation B: adjoint vs direct LPTV noise on the comparator");
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto tb = buildComparatorTestbench(nl, kit);
  MnaSystem sys(nl);

  PssOptions popt;
  popt.stepsPerPeriod = 400;
  popt.warmupCycles = 40;
  Stopwatch swPss;
  const PssResult pss = solvePssDriven(sys, tb.clkPeriod, popt);
  std::printf("PSS: %d shooting iterations, %.2fs\n", pss.shootingIterations,
              swPss.seconds());

  PnoiseAnalysis pn(sys, pss, PnoiseOptions{});
  const size_t ns = pn.sources().size();
  Stopwatch swAdj;
  const PnoiseSideband adjoint = pn.sideband(tb.vosIndex, 0);
  const double tAdjoint = swAdj.seconds();

  Stopwatch swDir;
  const LptvSolution& sol = pn.solution();
  const double tDirect = swDir.seconds();
  Stopwatch swSum;
  const Real psdDirect = directPsd(pn, tb.vosIndex, 0);
  const double tSum = swSum.seconds();

  Real maxDev = 0.0, maxTf = 0.0;
  for (size_t s = 0; s < ns; ++s) {
    const Cplx d = sol.harmonic(s, tb.vosIndex, 0);
    maxDev = std::max(maxDev, std::abs(adjoint.transfer[s] - d));
    maxTf = std::max(maxTf, std::abs(d));
  }
  const double storeMb = static_cast<double>(ns * pss.stepCount() *
                                             sys.size() * sizeof(Cplx)) /
                         (1024.0 * 1024.0);
  std::printf("\n%zu sources, %zu unknowns, M = %zu; PSD at baseband/1Hz:\n",
              ns, sys.size(), pss.stepCount());
  std::printf("  sideband() adjoint : %s V^2/Hz  [%.4fs, one transposed "
              "solve]\n",
              formatEng(adjoint.totalPsd, 6).c_str(), tAdjoint);
  std::printf("  solution() direct  : %s V^2/Hz  [%.4fs solve + %.5fs "
              "Fourier sum; %.1f MB envelope store]\n",
              formatEng(psdDirect, 6).c_str(), tDirect, tSum, storeMb);
  std::printf("  max |transfer difference| = %s (%.1e of the largest "
              "transfer)\n",
              formatEng(maxDev, 2).c_str(), maxDev / maxTf);

  // Nine more (output, sideband) functionals: one adjoint solve each, or
  // one Fourier sum each over the envelopes already stored.
  const int outs[3] = {tb.vosIndex, nl.nodeIndex(tb.comp.outp),
                       nl.nodeIndex(tb.comp.xp)};
  Stopwatch swAdj9;
  Real sumAdj = 0.0;
  for (int out : outs) {
    for (int harmonic : {0, 1, 2}) {
      sumAdj += pn.sideband(out, harmonic).totalPsd;
    }
  }
  const double tAdj9 = swAdj9.seconds();
  Stopwatch swDir9;
  Real sumDir = 0.0;
  for (int out : outs) {
    for (int harmonic : {0, 1, 2}) {
      sumDir += directPsd(pn, out, harmonic);
    }
  }
  const double tDir9 = swDir9.seconds();
  std::printf("\n9 further (output, sideband) readouts:\n");
  std::printf("  adjoint: %.4fs (9 solves, checksum %s)\n", tAdj9,
              formatEng(sumAdj, 3).c_str());
  std::printf("  direct : %.5fs (9 Fourier sums on the store, checksum %s)\n",
              tDir9, formatEng(sumDir, 3).c_str());
  std::printf("=> one functional costs one adjoint solve and no store; the "
              "direct store\npays off only for whole waveforms or many "
              "functionals of one analysis.\n");
  return 0;
}
