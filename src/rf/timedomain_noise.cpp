#include "rf/timedomain_noise.hpp"

#include <cmath>
#include <numeric>

namespace psmn {

StatisticalWaveform statisticalWaveform(const PnoiseAnalysis& pnoise,
                                        int outIndex) {
  const PssResult& pss = pnoise.pss();
  const auto& sources = pnoise.sources();
  const size_t m = pss.stepCount();

  StatisticalWaveform w;
  w.times.assign(pss.times.begin(), pss.times.begin() + m);
  w.nominal = pss.waveform(outIndex);
  std::vector<size_t> grid(m);
  std::iota(grid.begin(), grid.end(), size_t{0});
  const CplxVector p = pnoise.samples(outIndex, grid);  // p[s * m + k]
  w.sigma.assign(m, 0.0);
  const Real f = pnoise.offsetFreq();
  for (size_t k = 0; k < m; ++k) {
    Real var = 0.0;
    for (size_t s = 0; s < sources.size(); ++s) {
      var += std::norm(p[s * m + k]) * sources[s].psd(f);
    }
    w.sigma[k] = std::sqrt(var);
  }
  return w;
}

}  // namespace psmn
