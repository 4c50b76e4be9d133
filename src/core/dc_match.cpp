#include "core/dc_match.hpp"

#include "engine/sensitivity.hpp"

namespace psmn {

VariationResult dcMatchAnalysis(const MnaSystem& sys, int outIndex,
                                const DcOptions& dcOpt) {
  const DcResult dc = solveDc(sys, dcOpt);
  const auto sources = sys.collectSources();
  const RealVector sens =
      solveDcSensitivity(sys, dc.x, outIndex, sources);

  VariationResult r;
  r.measurement = "dcmatch(" + sys.netlist().unknownName(outIndex) + ")";
  for (size_t i = 0; i < sources.size(); ++i) {
    r.sourceNames.push_back(sources[i].name);
    r.scaledSens.push_back(sens[i] * sources[i].sigma);
  }
  r.paperVariance = r.variance();
  return r;
}

}  // namespace psmn
