#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tactic::util {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  if (count_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    auto& self = const_cast<SampleSet&>(*this);
    std::sort(self.samples_.begin(), self.samples_.end());
    self.sorted_ = true;
  }
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

namespace {

// QuantileHistogram layout: samples in [2^(e-1), 2^e) for octave e in
// [kMinOctave, kMaxOctave] split into 8 geometric sub-buckets at
// mantissa thresholds 2^(k/8)/2 (frexp mantissas live in [0.5, 1)).
constexpr int kMinOctave = -31;  // ~2.3e-10 lower edge
constexpr int kMaxOctave = 8;    // up to 256
constexpr std::size_t kSubBuckets = 8;
constexpr std::size_t kQuantileBuckets =
    static_cast<std::size_t>(kMaxOctave - kMinOctave + 1) * kSubBuckets;
constexpr double kSubThresholds[kSubBuckets] = {
    0.5,                0.5452538663326288, 0.5946035575013605,
    0.6484197773255048, 0.7071067811865476, 0.7711054127039704,
    0.8408964152537145, 0.9170040432046712};
// Geometric midpoint factor between adjacent sub-bucket edges: 2^(1/16).
constexpr double kBucketMid = 1.0442737824274138;

}  // namespace

std::size_t QuantileHistogram::bucket_index(double x) {
  int exp = 0;
  const double m = std::frexp(x, &exp);  // x = m * 2^exp, m in [0.5, 1)
  if (exp < kMinOctave) return 0;
  if (exp > kMaxOctave) return kQuantileBuckets - 1;
  std::size_t sub = 0;
  for (std::size_t k = kSubBuckets - 1; k > 0; --k) {
    if (m >= kSubThresholds[k]) {
      sub = k;
      break;
    }
  }
  return static_cast<std::size_t>(exp - kMinOctave) * kSubBuckets + sub;
}

double QuantileHistogram::bucket_value(std::size_t index) {
  const int exp = kMinOctave + static_cast<int>(index / kSubBuckets);
  const double lo = std::ldexp(kSubThresholds[index % kSubBuckets], exp);
  return lo * kBucketMid;
}

void QuantileHistogram::add(double x) {
  ++count_;
  sum_ += x;
  if (x <= 0.0) {
    ++zero_;
    return;
  }
  if (counts_.empty()) counts_.assign(kQuantileBuckets, 0);
  ++counts_[bucket_index(x)];
}

void QuantileHistogram::merge(const QuantileHistogram& other) {
  zero_ += other.zero_;
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.counts_.empty()) return;
  if (counts_.empty()) counts_.assign(kQuantileBuckets, 0);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

void QuantileHistogram::reset() {
  zero_ = 0;
  count_ = 0;
  sum_ = 0.0;
  std::fill(counts_.begin(), counts_.end(), 0);
}

double QuantileHistogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double QuantileHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const double target = clamped * static_cast<double>(count_ - 1);
  double cum = static_cast<double>(zero_);
  if (cum > target) return 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    last = bucket_value(i);
    cum += static_cast<double>(counts_[i]);
    if (cum > target) return last;
  }
  return last;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), width_((hi - lo) / static_cast<double>(buckets)) {
  if (buckets == 0 || hi <= lo) {
    throw std::invalid_argument("Histogram: bad range or bucket count");
  }
  counts_.assign(buckets, 0);
}

void Histogram::add(double x) {
  const double pos = (x - lo_) / width_;
  std::size_t idx;
  if (pos < 0.0) {
    idx = 0;
  } else if (pos >= static_cast<double>(counts_.size())) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>(pos);
  }
  ++counts_[idx];
  ++total_;
}

double Histogram::bucket_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

}  // namespace tactic::util
