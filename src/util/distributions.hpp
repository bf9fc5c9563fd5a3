#pragma once
// Random distributions used by the simulator.
//
// - `NormalDist` models the paper's benchmarked compute latencies
//   (Section 8.B charges BF/signature operation times as normal random
//   variables).  Samples can be truncated at a lower bound because a
//   latency can never be negative.
// - `ZipfDist` models content popularity (Section 8.A, alpha = 0.7,
//   following Breslau et al.).

#include <cstddef>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace tactic::util {

/// Normal (Gaussian) distribution sampled with the Marsaglia polar method.
class NormalDist {
 public:
  /// `stddev` must be >= 0.
  NormalDist(double mean, double stddev);

  double mean() const { return mean_; }
  double stddev() const { return stddev_; }

  /// One sample.
  double sample(Rng& rng);

  /// One sample clamped to be >= `lower`.  Clamping (rather than
  /// resampling) keeps the cost O(1) even for distributions whose mass is
  /// mostly below the bound, at the price of a point mass at `lower` —
  /// acceptable for latency models.
  double sample_at_least(Rng& rng, double lower);

 private:
  double mean_;
  double stddev_;
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// Zipf distribution over ranks {0, 1, ..., n-1}: P(rank k) proportional to
/// 1 / (k+1)^alpha.  Sampling is O(log n) by binary search over the
/// precomputed CDF; construction is O(n).  Copies share the immutable
/// CDF, so every user of one popularity law can hold its own copy.
class ZipfDist {
 public:
  /// `n` must be >= 1; `alpha` >= 0 (alpha = 0 degenerates to uniform).
  ZipfDist(std::size_t n, double alpha);

  std::size_t size() const { return cdf_->size(); }
  double alpha() const { return alpha_; }

  /// Probability of a given rank.
  double pmf(std::size_t rank) const;

  /// One sample (a rank in [0, n)).
  std::size_t sample(Rng& rng) const;

 private:
  double alpha_;
  /// (*cdf_)[k] = P(rank <= k); cdf_->back() == 1.
  std::shared_ptr<const std::vector<double>> cdf_;
};

}  // namespace tactic::util
