// Monte-Carlo cross-validation of the paper's sensitivity-based variation
// estimates — the reproduction's end-to-end claim. Two flows are checked
// on small mismatch circuits with a seeded, fixed-size MC run as ground
// truth:
//
//  * transient: sigma(t) from runTransientSensitivity (sqrt of
//    sum_i |ds/dp_i|^2 sigma_i^2) against the sample sigma of repeated
//    mismatched transients at the same grid points;
//  * periodic steady state: sigma(t) from the PSS + 1 Hz LPTV statistical
//    waveform (paper Fig. 8) against the sample sigma of per-sample PSS
//    re-solves.
//
// The sensitivity estimates are first-order in the mismatch deltas and the
// MC sample sigma carries a ~1/sqrt(2N) statistical error, so the
// comparisons use a tolerance well above both (seeded RNG keeps the run
// deterministic, not flaky).
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "core/monte_carlo.hpp"
#include "engine/transient.hpp"
#include "engine/transient_sensitivity.hpp"
#include "rf/pnoise.hpp"
#include "rf/pss.hpp"

namespace psmn {
namespace {

TEST(MonteCarloValidation, TransientSigmaMatchesSampleSigma) {
  // Pulse-driven RC divider with two mismatched resistors: v(mid) sweeps
  // through a transition, so the per-parameter sensitivities (and sigma(t))
  // genuinely vary over the window.
  Netlist nl;
  const NodeId top = nl.node("top");
  const NodeId mid = nl.node("mid");
  nl.add<VSource>("V1", top, kGround,
                  SourceWave::pulse(0.0, 2.0, 1e-9, 0.5e-9, 0.5e-9, 6e-9,
                                    20e-9),
                  nl);
  nl.add<Resistor>("R1", top, mid, 1e3, nl, /*sigma=*/10.0);
  nl.add<Resistor>("R2", mid, kGround, 1e3, nl, /*sigma=*/10.0);
  nl.add<Capacitor>("C1", mid, kGround, 1e-12, nl);
  MnaSystem sys(nl);
  const int midIdx = nl.nodeIndex(mid);

  const Real t1 = 4e-9, dt = 50e-12;
  TranOptions topt;
  topt.method = IntegrationMethod::kBackwardEuler;

  // Paper estimate: forward sensitivities of the whole waveform.
  const auto sources = sys.collectSources();
  ASSERT_EQ(sources.size(), 2u);
  const TransientSensitivityResult sens =
      runTransientSensitivity(sys, 0.0, t1, dt, sources, topt);

  // Probe a few grid points across the transition.
  const std::vector<size_t> probes{20, 40, 60, sens.times.size() - 1};
  RealVector predicted;
  for (size_t k : probes) {
    Real var = 0.0;
    for (size_t s = 0; s < sources.size(); ++s) {
      const Real d = sens.sens[s][k][midIdx] * sources[s].sigma;
      var += d * d;
    }
    predicted.push_back(std::sqrt(var));
  }

  // Ground truth: seeded Monte Carlo over the same measurement.
  McOptions mopt;
  mopt.samples = 400;
  mopt.seed = 20070611;  // fixed: the run must be reproducible
  MonteCarloEngine mc(sys, mopt);
  std::vector<std::string> names;
  for (size_t k : probes) names.push_back("v" + std::to_string(k));
  const McResult res = mc.run(names, [&](const MnaSystem& s) {
    const TransientResult tr = runTransient(s, 0.0, t1, dt, topt);
    RealVector out;
    for (size_t k : probes) out.push_back(tr.states.at(k)[midIdx]);
    return out;
  });
  ASSERT_EQ(res.failedSamples, 0u);

  const TransientResult nominal = runTransient(sys, 0.0, t1, dt, topt);
  ASSERT_EQ(nominal.times.size(), sens.times.size());  // same BE grid
  for (size_t j = 0; j < probes.size(); ++j) {
    // Means track the nominal waveform...
    EXPECT_NEAR(res.meanOf(j), nominal.states.at(probes[j])[midIdx],
                5e-3 * std::max(0.05, std::fabs(res.meanOf(j))))
        << names[j];
    // ...and the sensitivity-based sigma matches the sample sigma within
    // the MC statistical tolerance (~1/sqrt(2N) ~ 3.5% at N=400).
    EXPECT_NEAR(res.sigma(j), predicted[j], 0.12 * predicted[j] + 1e-6)
        << names[j];
  }
}

TEST(MonteCarloValidation, PssStatisticalWaveformMatchesSampleSigma) {
  // Sine-driven RC lowpass with a mismatched series resistor: the PSS +
  // LPTV statistical waveform sigma(t) (quasi-static 1 Hz pseudo-noise)
  // must match the sample sigma of re-shot periodic steady states.
  Netlist nl;
  const Real freq = 1e6;
  const NodeId in = nl.node("in");
  const NodeId out = nl.node("out");
  nl.add<VSource>("V1", in, kGround, SourceWave::sine(0.5, 0.4, freq), nl);
  nl.add<Resistor>("R1", in, out, 1e3, nl, /*sigma=*/10.0);
  nl.add<Capacitor>("C1", out, kGround, 20e-12, nl);
  MnaSystem sys(nl);
  const int outIdx = nl.nodeIndex(out);

  PssOptions popt;
  popt.stepsPerPeriod = 120;
  popt.warmupCycles = 2;
  const Real period = 1.0 / freq;
  const PssResult pss = solvePssDriven(sys, period, popt);

  PnoiseAnalysis pn(sys, pss, PnoiseOptions{});
  const StatisticalWaveform sw = pn.statistical(outIdx);

  const std::vector<size_t> probes{0, 30, 60, 90};
  McOptions mopt;
  mopt.samples = 250;
  mopt.seed = 7;
  MonteCarloEngine mc(sys, mopt);
  std::vector<std::string> names;
  for (size_t k : probes) names.push_back("p" + std::to_string(k));
  const McResult res = mc.run(names, [&](const MnaSystem& s) {
    const PssResult p = solvePssDriven(s, period, popt);
    RealVector v;
    for (size_t k : probes) v.push_back(p.states.at(k)[outIdx]);
    return v;
  });
  ASSERT_EQ(res.failedSamples, 0u);

  for (size_t j = 0; j < probes.size(); ++j) {
    EXPECT_NEAR(res.meanOf(j), sw.nominal[probes[j]], 1e-3) << names[j];
    EXPECT_NEAR(res.sigma(j), sw.sigma[probes[j]],
                0.15 * sw.sigma[probes[j]] + 1e-7)
        << names[j];
  }
}

}  // namespace
}  // namespace psmn
