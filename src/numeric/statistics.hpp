// Streaming and batch statistics used by the Monte-Carlo baseline and by
// its accuracy gates (Tables I-II, Figs. 11/12): mean, variance, skewness
// (normalized as mu3^(1/3)/sigma per the paper §VIII), correlation, and
// Monte-Carlo confidence intervals for sigma estimates.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "numeric/types.hpp"

namespace psmn {

/// Welford-style online accumulator for the first four central moments.
class MomentAccumulator {
 public:
  void add(Real x);
  void merge(const MomentAccumulator& other);

  size_t count() const { return n_; }
  Real mean() const { return mean_; }
  /// Unbiased (n-1) sample variance.
  Real variance() const;
  Real stddev() const;
  /// Third central moment E[(X-mu)^3].
  Real thirdCentralMoment() const;
  /// Standard skewness mu3 / sigma^3.
  Real skewness() const;
  /// The paper's "normalized skewness": sign(mu3)*|mu3|^(1/3) / sigma.
  Real normalizedSkewness() const;

 private:
  size_t n_ = 0;
  Real mean_ = 0.0;
  Real m2_ = 0.0;
  Real m3_ = 0.0;
  Real m4_ = 0.0;
};

/// Pearson correlation accumulator for paired samples.
class CorrelationAccumulator {
 public:
  void add(Real x, Real y);
  size_t count() const { return n_; }
  Real covariance() const;   // unbiased
  Real correlation() const;  // Pearson r
  Real meanX() const { return meanX_; }
  Real meanY() const { return meanY_; }
  Real varianceX() const;
  Real varianceY() const;

 private:
  size_t n_ = 0;
  Real meanX_ = 0.0, meanY_ = 0.0;
  Real m2x_ = 0.0, m2y_ = 0.0, cxy_ = 0.0;
};

Real mean(std::span<const Real> xs);
Real variance(std::span<const Real> xs);  // unbiased
Real stddev(std::span<const Real> xs);
Real correlation(std::span<const Real> xs, std::span<const Real> ys);

/// Relative half-width of the ~95% confidence interval on a Monte-Carlo
/// sigma estimate from n samples (Gaussian theory: 1.96/sqrt(2(n-1))).
/// n=1000 -> ~4.4%, n=10000 -> ~1.4%, matching the paper's ±4.5%/±1.4%.
Real sigmaConfidence95(size_t n);

/// Standard normal PDF.
Real gaussPdf(Real x, Real mu = 0.0, Real sigma = 1.0);

}  // namespace psmn
