#pragma once
// Experiment metrics, matching the paper's evaluation criteria
// (Section 8.A): user-based — content retrieval latency, request
// satisfaction ratio, tag statistics — and network-based — BF/signature
// operation counts and BF reset behaviour, split by router role.

#include <cstdint>
#include <vector>

#include "util/stats.hpp"
#include "util/timeseries.hpp"

namespace tactic::sim {

/// Aggregated TACTIC operation counts for one router class (Fig. 7).
struct RouterOps {
  std::uint64_t bf_lookups = 0;
  std::uint64_t bf_insertions = 0;
  std::uint64_t sig_verifications = 0;
  std::uint64_t bf_resets = 0;
  /// Total simulated compute time charged for the above (seconds), and
  /// its per-stage breakdown (compute_bf_s + compute_sig_s +
  /// compute_neg_s == compute_charged_s; queue wait is
  /// `validation_wait_s` below).
  double compute_charged_s = 0.0;
  double compute_bf_s = 0.0;   // BF lookups and insertions
  double compute_sig_s = 0.0;  // signature verifications
  double compute_neg_s = 0.0;  // negative-tag cache probes
  // Overload-resilience layer (docs/OVERLOAD.md; zero while disabled).
  std::uint64_t neg_cache_hits = 0;
  std::uint64_t neg_cache_insertions = 0;
  std::uint64_t sheds_queue_full = 0;
  std::uint64_t sheds_unvouched = 0;
  std::uint64_t policer_sheds = 0;
  std::uint64_t staged_resets = 0;
  std::uint64_t draining_hits = 0;
  /// Time validation jobs spent queued behind earlier work (seconds).
  double validation_wait_s = 0.0;
  // Batched-validation layer (docs/ARCHITECTURE.md, "Batched stages";
  // zero while disabled).
  std::uint64_t sig_batches_flushed = 0;
  std::uint64_t sig_batched_items = 0;
  std::uint64_t sig_batch_flush_size_cap = 0;
  std::uint64_t sig_batch_flush_deadline = 0;
  std::uint64_t sig_batch_flush_queue_drain = 0;
  std::uint64_t sig_batches_dropped = 0;
  /// Largest pending-batch occupancy observed (max across routers).
  std::uint64_t sig_batch_peak = 0;
  /// What the flushed batches would have charged verified one by one
  /// (seconds); amortization ratio = this / the batched share of
  /// compute_sig_s.
  double sig_batch_unbatched_equiv_s = 0.0;
  std::uint64_t bf_probes_coalesced = 0;
  /// Validation jobs stolen from a busy home lane by an idle one (zero
  /// with a single lane; docs/ARCHITECTURE.md "Event engine").
  /// Never fingerprinted.
  std::uint64_t lane_steals = 0;
  // Adaptive overload control (docs/OVERLOAD.md, "Adaptive control &
  // face quarantine"; zero while disabled).
  std::uint64_t adaptive_windows = 0;
  std::uint64_t adaptive_minrtt_probes = 0;
  std::uint64_t quarantine_sheds = 0;
  std::uint64_t quarantine_ejections = 0;
  std::uint64_t quarantine_probes = 0;
  std::uint64_t quarantine_readmissions = 0;
  /// End-of-run gradient and concurrency limit (max across routers).
  double adaptive_gradient = 0.0;
  std::uint64_t adaptive_limit = 0;
  // Tag-lifecycle layer (docs/FAULTS.md, "Clock skew & tag lifecycle";
  // zero while skew tolerance, grace mode, and the clock-skew fault
  // model are all disabled).
  std::uint64_t skew_soft_accepts = 0;
  std::uint64_t skew_false_rejects = 0;
  std::uint64_t skew_false_accepts = 0;
  std::uint64_t grace_accepts = 0;
  std::uint64_t grace_engagements = 0;
  /// Streaming quantile sketch of per-op validation queue wait
  /// (seconds; empty while the overload layer is off).  Merged
  /// bucket-wise across routers, so class-level quantiles are exact
  /// over the union of samples.  Never fingerprinted.
  util::QuantileHistogram validation_wait_hist;
  // Name-table work (FIB trie / PIT slab / CS index; see
  // docs/ARCHITECTURE.md "Name interning and table structures").  Used by
  // cost-regression tests and bench/scalability; never fingerprinted.
  std::uint64_t fib_lookups = 0;
  std::uint64_t fib_nodes_visited = 0;  // trie nodes touched by lookups
  std::uint64_t pit_lookups = 0;
  std::uint64_t pit_inserts = 0;
  std::uint64_t pit_expiry_polls = 0;  // lazy-heap records examined
  std::uint64_t cs_evictions = 0;

  // Packet-pool traffic (ndn::PacketPool; docs/ARCHITECTURE.md "Packet
  // memory model").  Never fingerprinted.
  std::uint64_t pool_acquires = 0;       // packets handed out
  std::uint64_t pool_reuses = 0;         // ... recycling a slot
  std::uint64_t pool_refills = 0;        // ... growing the slab
  std::uint64_t packet_cow_clones = 0;   // clone_for_edit on shared packets
  std::uint64_t packet_inplace_edits = 0;  // edit() on uniquely-held ones

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

  /// Mean signature-batch occupancy at flush (1.0 = no amortization).
  double mean_batch_occupancy() const {
    return sig_batches_flushed == 0
               ? 0.0
               : static_cast<double>(sig_batched_items) /
                     static_cast<double>(sig_batches_flushed);
  }

  RouterOps& operator+=(const RouterOps& other);
};

/// Traffic totals for one user class (Table IV).
struct TrafficTotals {
  std::uint64_t requested = 0;
  std::uint64_t received = 0;
  std::uint64_t nacks = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t tags_requested = 0;
  std::uint64_t tags_received = 0;
  /// Retransmission bookkeeping (chaos layer; zero without faults).
  std::uint64_t retransmissions = 0;
  std::uint64_t chunks_abandoned = 0;
  std::uint64_t registration_retransmissions = 0;
  /// kRouterOverloaded NACKs seen (overload layer; zero while disabled).
  std::uint64_t overload_nacks = 0;
  /// Proactive renewal timers that fired (tag-lifecycle layer; zero
  /// while disabled).  Never fingerprinted.
  std::uint64_t proactive_renewals = 0;

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
  util::RunningStats edge_lookups, edge_inserts, edge_verifies, edge_resets;
  util::RunningStats core_lookups, core_inserts, core_verifies, core_resets;
  /// Per-stage compute breakdown (seconds per run; see RouterOps).
  util::RunningStats edge_compute_bf, edge_compute_sig, edge_compute_neg;
  util::RunningStats core_compute_bf, core_compute_sig, core_compute_neg;
  /// Batched validation (zero while disabled; see RouterOps).
  util::RunningStats edge_batches, edge_batched_items, edge_batch_equiv_s;
  util::RunningStats core_batches, core_batched_items, core_batch_equiv_s;
  /// Validation-wait quantiles and adaptive overload control (zero while
  /// the overload / adaptive layers are disabled; see RouterOps).
  util::RunningStats edge_wait_p50, edge_wait_p95, edge_wait_p99;
  util::RunningStats core_wait_p50, core_wait_p95, core_wait_p99;
  util::RunningStats adaptive_gradient, adaptive_limit,
      quarantine_ejections;
  /// Tag-lifecycle layer (zero while disabled; see RouterOps).
  util::RunningStats edge_skew_false_rejects, edge_skew_false_accepts,
      edge_skew_soft_accepts, edge_grace_accepts;
  util::RunningStats core_skew_false_rejects, core_skew_false_accepts;
  /// Packet-pool traffic, edge + core combined (see RouterOps; the
  /// copy-elimination figure in EXPERIMENTS.md "Fig. 7").
  util::RunningStats pool_acquires, pool_reuses;
  util::RunningStats packet_cow_clones, packet_inplace_edits;
  util::RunningStats edge_reqs_per_reset, core_reqs_per_reset;
  util::RunningStats provider_verifies;
  util::RunningStats cache_hit_ratio;
  util::RunningStats attacker_nacks, attacker_timeouts;
};

}  // namespace tactic::sim
