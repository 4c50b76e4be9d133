#include "numeric/fourier.hpp"

#include <cmath>
#include <numbers>

#include "util/status.hpp"

namespace psmn {

namespace {
constexpr Real kTwoPi = 2.0 * std::numbers::pi_v<Real>;
}

Cplx fourierCoefficient(std::span<const Real> samples, int harmonic) {
  PSMN_CHECK(!samples.empty(), "fourierCoefficient: empty sample set");
  const size_t m = samples.size();
  Cplx acc{};
  for (size_t k = 0; k < m; ++k) {
    const Real phase = -kTwoPi * harmonic * static_cast<Real>(k) / m;
    acc += samples[k] * Cplx(std::cos(phase), std::sin(phase));
  }
  return acc / static_cast<Real>(m);
}

}  // namespace psmn
