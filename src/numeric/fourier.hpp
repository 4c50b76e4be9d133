// Fourier-series helpers for uniformly sampled periodic waveforms.
//
// The PSS engine produces one period of a waveform on a uniform grid of M
// points x_0..x_{M-1} (x_M == x_0 excluded). The N-th Fourier coefficient
//   X_N = (1/M) sum_k x_k exp(-j 2*pi*N*k / M)
// is the complex amplitude of the exp(+j 2*pi*N*f0*t) component; for a real
// signal the "amplitude of the fundamental" in the paper's sense is
// Ac = 2 |X_1|.
#pragma once

#include <span>

#include "numeric/types.hpp"

namespace psmn {

/// Single Fourier coefficient X_N of a real periodic sample set.
Cplx fourierCoefficient(std::span<const Real> samples, int harmonic);

}  // namespace psmn
