#include "core/correlated_mismatch.hpp"

namespace psmn {

void CorrelatedMismatch::addGroup(std::vector<ParamRef> params,
                                  const RealMatrix& covariance) {
  PSMN_CHECK(!params.empty(), "empty correlation group");
  PSMN_CHECK(covariance.rows() == params.size() &&
                 covariance.cols() == params.size(),
             "covariance size does not match parameter count");
  for (const auto& p : params) {
    PSMN_CHECK(p.device != nullptr, "null device in correlation group");
    PSMN_CHECK(!covers(p.device, p.index),
               "parameter already belongs to a correlation group");
  }
  Group g;
  g.params = std::move(params);
  g.factor = choleskyFactor(covariance);
  groups_.push_back(std::move(g));
}

void CorrelatedMismatch::addUniformCorrelationGroup(
    std::vector<ParamRef> params, Real rho) {
  PSMN_CHECK(rho >= -1.0 && rho <= 1.0, "correlation must be in [-1,1]");
  const size_t n = params.size();
  RealMatrix cov(n, n);
  for (size_t i = 0; i < n; ++i) {
    const Real si = params[i].device->mismatchParam(params[i].index).sigma;
    for (size_t j = 0; j < n; ++j) {
      const Real sj = params[j].device->mismatchParam(params[j].index).sigma;
      cov(i, j) = (i == j ? 1.0 : rho) * si * sj;
    }
  }
  addGroup(std::move(params), cov);
}

bool CorrelatedMismatch::covers(const Device* device, size_t index) const {
  for (const auto& g : groups_) {
    for (const auto& p : g.params) {
      if (p.device == device && p.index == index) return true;
    }
  }
  return false;
}

void CorrelatedMismatch::applySample(Rng& rng) const {
  for (const auto& g : groups_) {
    const size_t n = g.params.size();
    RealVector xi(n);
    for (Real& x : xi) x = rng.gaussian();
    for (size_t i = 0; i < n; ++i) {
      Real delta = 0.0;
      for (size_t j = 0; j <= i; ++j) delta += g.factor(i, j) * xi[j];
      g.params[i].device->setMismatchDelta(g.params[i].index, delta);
    }
  }
}

std::vector<InjectionSource> CorrelatedMismatch::compositeSources() const {
  std::vector<InjectionSource> out;
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    const Group& g = groups_[gi];
    const size_t n = g.params.size();
    for (size_t j = 0; j < n; ++j) {
      InjectionSource s;
      s.name = "corr" + std::to_string(gi) + ".xi" + std::to_string(j);
      s.sigma = 1.0;  // xi_j is unit-variance; weights carry the units
      for (size_t i = j; i < n; ++i) {  // factor is lower triangular
        if (g.factor(i, j) == 0.0) continue;
        s.components.push_back(
            {g.params[i].device, g.params[i].index, g.factor(i, j)});
      }
      if (!s.components.empty()) out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<InjectionSource> CorrelatedMismatch::transformSources(
    std::vector<InjectionSource> independent) const {
  std::vector<InjectionSource> out;
  for (auto& s : independent) {
    if (s.components.size() == 1 &&
        covers(s.components[0].device, s.components[0].index)) {
      continue;  // replaced by a composite source
    }
    out.push_back(std::move(s));
  }
  for (auto& s : compositeSources()) out.push_back(std::move(s));
  return out;
}

}  // namespace psmn
