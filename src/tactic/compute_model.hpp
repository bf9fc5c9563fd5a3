#pragma once
// Compute-latency charging (paper Section 8.B).
//
// "The ns-3 (and hence ndnSIM) simulator does not take the time of the
// computational operations into account.  Thus, we benchmarked the latency
// distribution (normal distribution) of our computation-based events ...
// This allowed us to apply the delays, for computation-based operations,
// as random variables according to our benchmarks."
//
// The paper's published distributions (seconds):
//   BF look up            ~ N(9.14e-7, 6.51e-9)
//   BF insertion          ~ N(3.35e-7, 1.73e-3)
//   signature verification ~ N(1.12e-5, 6.49e-3)
//
// Note the printed insertion/verification sigmas exceed their means by
// orders of magnitude; sampled that way, roughly half the draws are
// negative (clamped to zero here) and the rest form a millisecond-scale
// tail.  That tail is precisely what makes Bloom-filter resets visible in
// the paper's latency plots, so `paper_defaults()` keeps the values as
// printed (with clamping).  `deterministic()` uses the means only, and
// `zero()` disables charging (unit tests).

#include <cstddef>

#include "event/time.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace tactic::core {

class ComputeModel {
 public:
  struct Params {
    util::NormalDist bf_lookup{9.14e-7, 6.51e-9};
    util::NormalDist bf_insert{3.35e-7, 1.73e-3};
    util::NormalDist sig_verify{1.12e-5, 6.49e-3};
    /// Negative-tag verdict-cache probe (overload layer): a hash-map
    /// lookup, modeled at BF-lookup scale.  Not a paper quantity.
    util::NormalDist neg_lookup{1.5e-7, 1.0e-8};
    /// Batched validation (docs/ARCHITECTURE.md, "Batched validation").
    /// Marginal cost of each additional signature in a batch, as a
    /// fraction of a full verification: batch-RSA pays one full-size
    /// exponentiation plus cheap per-item combination work, so
    /// sig_verify_batch_cost(n) = draw * (1 + (n - 1) * marginal).
    double sig_batch_marginal = 0.125;
    /// Marginal cost of each same-instant Bloom probe after the first
    /// (SIMD multi-probe over one cache-resident filter), as a fraction
    /// of a full lookup draw.
    double bf_probe_marginal = 0.25;
  };

  ComputeModel() : ComputeModel(Params{}) {}
  explicit ComputeModel(Params params) : params_(params) {}

  /// The paper's benchmarked distributions, as printed, clamped at >= 0.
  static ComputeModel paper_defaults() { return ComputeModel{}; }
  /// Means only — no randomness in charged compute.
  static ComputeModel deterministic();
  /// All operations free (unit tests / pure-protocol checks).
  static ComputeModel zero();

  /// Sampled charge for one operation, as simulation time (>= 0).
  event::Time bf_lookup_cost(util::Rng& rng);
  event::Time bf_insert_cost(util::Rng& rng);
  event::Time sig_verify_cost(util::Rng& rng);
  event::Time neg_lookup_cost(util::Rng& rng);

  /// Amortized batch-RSA charge for verifying n signatures together:
  /// one sig_verify draw scaled by sig_batch_factor(n).  n = 1 consumes
  /// exactly one draw and charges exactly what sig_verify_cost would
  /// have; the total is monotone in n and the per-item cost strictly
  /// sub-linear (for marginal < 1).
  event::Time sig_verify_batch_cost(std::size_t n, util::Rng& rng);

  /// The batch scaling factor 1 + (n - 1) * sig_batch_marginal, exposed
  /// separately so a caller that already drew the first item's cost can
  /// scale it without consuming another draw.
  double sig_batch_factor(std::size_t n) const;

  double bf_probe_marginal() const { return params_.bf_probe_marginal; }
  const Params& params() const { return params_; }
  /// Adjust the batching marginals (fuzz generator); the draw
  /// distributions stay untouched.
  void set_batch_marginals(double sig_marginal, double bf_marginal) {
    params_.sig_batch_marginal = sig_marginal;
    params_.bf_probe_marginal = bf_marginal;
  }

 private:
  static event::Time clamp_to_time(double seconds);

  Params params_;
};

}  // namespace tactic::core
