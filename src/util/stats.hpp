#pragma once
// Streaming and batch statistics used by the metrics collector.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tactic::util {

/// Constant-memory streaming statistics (Welford's online algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Mean of the samples; 0 when empty.
  double mean() const;
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Min/max; 0 when empty.
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Batch sample set with percentile queries.  Keeps all samples; use for
/// result reporting, not per-packet hot paths.
class SampleSet {
 public:
  void add(double x);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  /// Percentile in [0, 100] by linear interpolation between closest ranks;
  /// 0 when empty.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Deterministic streaming quantile sketch: a fixed log-spaced bucket
/// histogram (8 sub-buckets per power of two, covering ~2^-32 .. 2^8,
/// i.e. sub-nanosecond to hundreds of seconds when fed seconds) with
/// constant memory, exact merge, and ~9% worst-case relative quantile
/// error.  Unlike P², merging two sketches is exact (bucket-wise sum),
/// which is what lets per-router wait quantiles aggregate into one
/// router-class figure.  Bucketing uses only frexp/ldexp (exact
/// floating-point ops), so results are bit-reproducible.  The buckets
/// are allocated by the first positive sample, added or merged in: a
/// router that never queues validation work costs none.
class QuantileHistogram {
 public:
  /// Adds one sample; x <= 0 lands in a dedicated zero bucket whose
  /// quantile representative is exactly 0.
  void add(double x);
  void merge(const QuantileHistogram& other);
  /// Zeroes every count; allocated buckets stay allocated.
  void reset();

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const;
  /// Quantile for q in [0, 1] (clamped); returns the geometric midpoint
  /// of the bucket holding the target rank, or 0 when empty.
  double quantile(double q) const;

 private:
  static std::size_t bucket_index(double x);
  static double bucket_value(std::size_t index);

  std::uint64_t zero_ = 0;  // samples <= 0
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::vector<std::uint64_t> counts_;  // empty until a positive sample
};

/// Fixed-width histogram over [lo, hi) with out-of-range samples clamped to
/// the first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  /// Lower edge of bucket i.
  double bucket_lo(std::size_t i) const;
  std::uint64_t total() const { return total_; }

 private:
  double lo_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace tactic::util
