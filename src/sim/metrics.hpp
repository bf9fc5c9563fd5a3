#pragma once
// Experiment metrics, matching the paper's evaluation criteria
// (Section 8.A): user-based — content retrieval latency, request
// satisfaction ratio, tag statistics — and network-based — BF/signature
// operation counts and BF reset behaviour, split by router role.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/stats.hpp"
#include "util/timeseries.hpp"

namespace tactic::sim {

// Column values of the stats tables (tactic/router_stats.def,
// workload/user_stats.def).

/// How a row merges across routers, and across classes in operator+=.
enum class Merge {
  kSum,
  kMax,      // end-of-run gauges and peaks
  kBuckets,  // histograms, bucket-wise
};
/// The layer that moves a router row (see router_stats.def).
enum class Layer {
  kBase,
  kOverload,
  kBatch,
  kAdaptive,
  kLifecycle,
  kForwarder,
};
inline constexpr std::size_t index(Layer layer) {
  return static_cast<std::size_t>(layer);
}
inline constexpr std::size_t kLayerCount = index(Layer::kForwarder) + 1;
/// Whether testing::fingerprint prints a row.
inline constexpr bool kPrinted = true;
inline constexpr bool kHidden = false;

template <typename T>
void merge(T& into, std::type_identity_t<T> from, Merge how) {
  if (how == Merge::kMax) {
    if (from > into) into = from;
  } else {
    into += from;
  }
}
inline void merge(util::QuantileHistogram& into,
                  const util::QuantileHistogram& from, Merge) {
  into.merge(from);
}
inline bool nonzero(std::uint64_t value) { return value != 0; }
inline bool nonzero(double value) { return value != 0.0; }
inline bool nonzero(const util::QuantileHistogram& hist) {
  return !hist.empty();
}

/// Aggregated router counters for one router class (Fig. 7): one field
/// per row of tactic/router_stats.def.
struct RouterOps {
#define ROUTER_STAT(name, type, merge, print, layer) type name{};
#include "tactic/router_stats.def"

  /// Validation-wait quantiles (seconds) from the merged sketch.
  double validation_wait_p50_s() const {
    return validation_wait_hist.quantile(0.50);
  }
  double validation_wait_p95_s() const {
    return validation_wait_hist.quantile(0.95);
  }
  double validation_wait_p99_s() const {
    return validation_wait_hist.quantile(0.99);
  }

  /// Merges `other` row by row, as each row's merge column says.
  RouterOps& operator+=(const RouterOps& other);
};

/// Traffic totals for one user class (Table IV): one field per row of
/// workload/user_stats.def.
struct TrafficTotals {
#define USER_STAT(counter, total, print) std::uint64_t total = 0;
#include "workload/user_stats.def"

  double delivery_ratio() const {
    return requested == 0
               ? 0.0
               : static_cast<double>(received) /
                     static_cast<double>(requested);
  }
  TrafficTotals& operator+=(const TrafficTotals& other);
};

/// Everything one scenario run produces.
struct Metrics {
  // Per-second series (Figs. 5 and 6).
  util::TimeSeries latency{1.0};       // client retrieval latency (seconds)
  util::TimeSeries tag_requests{1.0};  // Q events
  util::TimeSeries tag_receives{1.0};  // R events
  /// Recovery latency: first-attempt-to-delivery time of chunks that
  /// needed at least one retransmission (empty without faults).
  util::TimeSeries recovery_latency{1.0};

  TrafficTotals clients;
  TrafficTotals attackers;

  RouterOps edge_ops;
  RouterOps core_ops;

  /// Completed inter-reset request counts (Fig. 8), by router class.
  std::vector<std::uint64_t> edge_requests_per_reset;
  std::vector<std::uint64_t> core_requests_per_reset;

  /// Provider-side burden (Table II).
  std::uint64_t provider_sig_verifications = 0;
  std::uint64_t provider_tags_issued = 0;
  std::uint64_t provider_content_served = 0;

  /// Network totals.  `link_frames_dropped` stays the combined refusal
  /// count (queue overflow + link down) for pre-split consumers; the
  /// split and the fault-model fates follow.
  std::uint64_t link_bytes_sent = 0;
  std::uint64_t link_frames_dropped = 0;
  std::uint64_t link_dropped_queue_full = 0;
  std::uint64_t link_refused_link_down = 0;
  std::uint64_t link_frames_lost = 0;
  std::uint64_t link_frames_corrupted = 0;
  std::uint64_t cs_hits = 0;
  std::uint64_t cs_misses = 0;
  /// PIT entries LRU-evicted under a bounded PIT (zero when unbounded).
  std::uint64_t pit_evictions = 0;

  /// Fault-injection totals over every node (zero without faults).
  std::uint64_t node_crashes = 0;
  std::uint64_t node_restarts = 0;
  std::uint64_t packets_dropped_while_down = 0;
  std::uint64_t corrupt_frames_rejected = 0;

  double mean_latency() const { return latency.overall_mean(); }
  double cache_hit_ratio() const {
    const std::uint64_t total = cs_hits + cs_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cs_hits) /
                            static_cast<double>(total);
  }

  /// Mean over the per-reset request counts; 0 when no resets completed.
  static double mean_requests_per_reset(
      const std::vector<std::uint64_t>& samples);
};

/// Per-run statistics of one router class: one RunningStats per scalar
/// row of tactic/router_stats.def (`edge.bf_lookups`), and the p50, p95
/// and p99 of each histogram row (`edge.validation_wait_p95_s`).
struct RouterOpsStats {
#define ROUTER_STAT(name, type, merge, print, layer) util::RunningStats name;
#define ENGINE_HISTOGRAM(name, stem, layer) \
  util::RunningStats stem##_p50_s, stem##_p95_s, stem##_p99_s;
#include "tactic/router_stats.def"

  void add(const RouterOps& ops);
  /// Calls f(name, stats) for every statistic, in table order (the Fig. 7
  /// CSV columns).
  template <typename F>
  void for_each(F&& f) const {
#define ROUTER_STAT(name, type, merge, print, layer) f(#name, name);
#define ENGINE_HISTOGRAM(name, stem, layer) \
  f(#stem "_p50_s", stem##_p50_s);          \
  f(#stem "_p95_s", stem##_p95_s);          \
  f(#stem "_p99_s", stem##_p99_s);
#include "tactic/router_stats.def"
  }
};

/// Element-wise accumulation across seeds (divide by run count for means).
struct MetricsAccumulator {
  void add(const Metrics& metrics);

  std::size_t runs = 0;
  util::RunningStats mean_latency;
  util::RunningStats client_delivery;
  util::RunningStats attacker_delivery;
  util::RunningStats client_requested, client_received;
  util::RunningStats attacker_requested, attacker_received;
  util::RunningStats tag_request_rate, tag_receive_rate;  // per second
  /// Router counters by class, and of both classes merged by
  /// RouterOps::operator+= (the packet-pool figure in EXPERIMENTS.md
  /// "Fig. 7").
  RouterOpsStats edge, core, routers;
  util::RunningStats edge_reqs_per_reset, core_reqs_per_reset;
  util::RunningStats provider_verifies;
  util::RunningStats cache_hit_ratio;
  util::RunningStats attacker_nacks, attacker_timeouts;
};

}  // namespace tactic::sim
