// Example: output variation of the 20-transistor bipolar op-amp follower
// (circuit/bjt_opamp) from one transient-sensitivity solve.
//
// The follower closes the op-amp in unity gain around a 0.2 V input step.
// One direct-sensitivity transient (Hocevar recursion riding the Newton
// factorizations) yields dVout/dp for all 44 mismatch parameters — 2 per
// BJT (IS and beta) plus the degeneration resistors — and the predicted
// sigma is cross-checked against a small seeded Monte-Carlo batch.
#include <cmath>
#include <cstdio>
#include <vector>

#include "circuit/bjt_opamp.hpp"
#include "core/monte_carlo.hpp"
#include "engine/transient_sensitivity.hpp"
#include "util/units.hpp"

using namespace psmn;

namespace {

std::unique_ptr<Netlist> makeFollower() {
  auto nl = std::make_unique<Netlist>();
  buildBjtFollower(*nl, BjtKit::bipolar5());
  return nl;
}

}  // namespace

int main() {
  auto nl = makeFollower();
  MnaSystem sys(*nl);
  const auto sources = sys.collectSources();
  const int out = nl->nodeIndex("out");
  std::printf("bjt op-amp follower: %zu devices, %zu unknowns, "
              "%zu mismatch sources\n",
              nl->devices().size(), sys.size(), sources.size());

  // One sensitivity transient across the 0.2 V step (settled by 600 ns).
  TranOptions topt;
  topt.method = IntegrationMethod::kBackwardEuler;
  const TransientSensitivityResult sens =
      runTransientSensitivity(sys, 0.0, 600e-9, 2e-9, sources, topt);
  const size_t last = sens.times.size() - 1;

  Real var = 0.0;
  std::vector<Real> scaled(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    scaled[i] = sens.sens[i][last][out] * sources[i].sigma;
    var += scaled[i] * scaled[i];
  }
  const Real sigma = std::sqrt(var);
  std::printf("settled v(out) = %sV, predicted sigma = %sV\n\n",
              formatEng(sens.states[last][out]).c_str(),
              formatEng(sigma).c_str());

  std::printf("largest contributors (S_i * sigma_i):\n");
  for (size_t i = 0; i < sources.size(); ++i) {
    if (std::fabs(scaled[i]) < 0.1 * sigma) continue;
    std::printf("  %-10s %sV\n", sources[i].name.c_str(),
                formatEng(scaled[i], 3).c_str());
  }

  // Cross-check against a seeded Monte-Carlo batch on the parallel
  // runtime (jobs=0: one slot per hardware thread, bit-identical for any
  // jobs count).
  McOptions mopt;
  mopt.samples = 200;
  mopt.seed = 20070604;
  mopt.jobs = 0;
  MonteCarloEngine mc(sys, mopt);
  mc.setNetlistFactory(makeFollower);
  const McResult res = mc.run({"vout"}, [&](const MnaSystem& s) {
    const TransientResult tr = runTransient(s, 0.0, 600e-9, 2e-9, topt);
    return RealVector{tr.finalState[out]};
  });
  std::printf("\nmonte-carlo (%zu samples): sigma = %sV (ratio %.3f)\n",
              mopt.samples, formatEng(res.sigma(0)).c_str(),
              res.sigma(0) / sigma);
  return 0;
}
