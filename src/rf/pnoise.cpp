#include "rf/pnoise.hpp"

#include "util/telemetry.hpp"

namespace psmn {

PnoiseAnalysis::PnoiseAnalysis(const MnaSystem& sys, const PssResult& pss,
                               PnoiseOptions opt)
    : PnoiseAnalysis(sys, pss, sys.collectSources(), opt) {}

PnoiseAnalysis::PnoiseAnalysis(const MnaSystem& sys, const PssResult& pss,
                               std::vector<InjectionSource> sources,
                               PnoiseOptions opt)
    : solver_(sys, pss, std::move(sources), opt.offsetFreq,
              LptvOptions{opt.pool}) {
  PSMN_CHECK(opt.offsetFreq > 0.0, "offset frequency must be positive");
  PSMN_CHECK(!solver_.sources().empty(), "no injection sources");
  const Real f0 = 1.0 / pss.period;
  PSMN_CHECK(opt.offsetFreq < 0.01 * f0,
             "offset frequency must be far below the fundamental");
}

const LptvSolution& PnoiseAnalysis::solution() const {
  if (!solution_) {
    TraceSpan span(Phase::kPnoise, "pnoise");
    solution_ = solver_.solveDirect();
  }
  return *solution_;
}

PnoiseSideband PnoiseAnalysis::sideband(int outIndex, int harmonic) const {
  TraceSpan span(Phase::kPnoise, "pnoise");
  PnoiseSideband sb;
  sb.harmonic = harmonic;
  sb.offsetFreq = offsetFreq();
  sb.transfer = solver_.solveAdjoint(outIndex, harmonic);
  sb.contribution.reserve(sb.transfer.size());
  for (size_t s = 0; s < sb.transfer.size(); ++s) {
    const Real contrib =
        std::norm(sb.transfer[s]) * sources()[s].psd(sb.offsetFreq);
    sb.contribution.push_back(contrib);
    sb.totalPsd += contrib;
  }
  return sb;
}

CplxVector PnoiseAnalysis::samples(int outIndex,
                                   std::span<const size_t> points) const {
  TraceSpan span(Phase::kPnoise, "pnoise");
  return solver_.sampleDirect(outIndex, points);
}

}  // namespace psmn
