#include "util/distributions.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace tactic::util {

NormalDist::NormalDist(double mean, double stddev)
    : mean_(mean), stddev_(stddev) {
  if (stddev < 0.0) {
    throw std::invalid_argument("NormalDist: negative stddev");
  }
}

double NormalDist::sample(Rng& rng) {
  if (stddev_ == 0.0) return mean_;
  if (has_spare_) {
    has_spare_ = false;
    return mean_ + stddev_ * spare_;
  }
  double u, v, s;
  do {
    u = 2.0 * rng.uniform_double() - 1.0;
    v = 2.0 * rng.uniform_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return mean_ + stddev_ * u * factor;
}

double NormalDist::sample_at_least(Rng& rng, double lower) {
  return std::max(lower, sample(rng));
}

ZipfDist::ZipfDist(std::size_t n, double alpha) : alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfDist: n must be >= 1");
  if (alpha < 0.0) throw std::invalid_argument("ZipfDist: negative alpha");
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf[k] = acc;
  }
  for (double& c : cdf) c /= acc;
  cdf.back() = 1.0;  // guard against floating-point shortfall
  cdf_ = std::make_shared<const std::vector<double>>(std::move(cdf));
}

double ZipfDist::pmf(std::size_t rank) const {
  const std::vector<double>& cdf = *cdf_;
  assert(rank < cdf.size());
  return rank == 0 ? cdf[0] : cdf[rank] - cdf[rank - 1];
}

std::size_t ZipfDist::sample(Rng& rng) const {
  const double u = rng.uniform_double();
  const std::vector<double>& cdf = *cdf_;
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::size_t>(it - cdf.begin());
}

}  // namespace tactic::util
