#pragma once
// Runtime invariant hooks for scenario runs.
//
// An InvariantChecker attaches to every forwarder in a Scenario (via
// Forwarder::add_tracer) plus a periodic sampler, and asserts, while the
// simulation runs:
//
//  - delivery: under kTactic no router transmits protected (non-NACK)
//    Data for a structurally invalid tag — missing, expired (with
//    in-flight slack), access level below the content's, or naming the
//    wrong provider.  Deliveries whose tag fails only *signature*
//    verification are counted separately (`fp_leaks`): Bloom false
//    positives can produce them by design at ~max_fpp rate, so they are
//    budgeted at finalize() rather than condemned individually.
//  - Bloom saturation: no router's estimated FPP stays above its reset
//    threshold for more than one sampling interval (saturation must
//    trigger a reset).
//  - PIT: no entry outlives its expiry time; after a drain every PIT is
//    empty.
//  - CS: never exceeds its configured capacity.
//
// finalize() drains the scenario and adds the end-of-run checks: PIT
// emptiness, user accounting bounds, and the per-policy attacker
// containment guarantees (kTactic / kPerRequestAuth / kProbBf).
//
// Fault plans (sim::FaultPlan) never weaken the security checks.  Only
// the delivery-liveness check is budgeted: when the plan is severe()
// for the run duration, "no client received content" is excused.
//
// The checker consumes no randomness and sends no packets, so attaching
// it does not perturb the run — a property the harness itself verifies
// through its bit-reproducibility comparison.  Every packet event is
// hashed (SHA-256 over node/face/direction/time/wire bytes) and folded
// into `trace_digest()` as an order-insensitive multiset accumulator
// (lane-wise wrapping sum of the per-event digests), so the digest names
// the set of packet events, not the interleaving of same-instant ones.
// Digests are only ever compared run-to-run within one build — never
// pinned as goldens.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/scenario.hpp"
#include "util/bytes.hpp"

namespace tactic::testing {

struct InvariantOptions {
  /// Cadence of the PIT/CS/Bloom sampler.
  event::Time sample_interval = event::kSecond;
  /// Extra simulated time finalize() runs after stopping workloads so
  /// in-flight packets land and PIT entries expire.
  event::Time drain_grace = 30 * event::kSecond;
  /// Tag-expiry slack on the delivery check: Protocol 1 checks expiry at
  /// request time, so a tag may expire while its Data is in flight.
  /// Anything older than ~2 Interest lifetimes is a real violation.
  /// When the scenario enables the tag-lifecycle layer the checker
  /// widens this by the configured skew tolerance, grace window, and
  /// worst-case clock error — deliveries beyond even that remain
  /// violations.
  event::Time expiry_slack = 2 * event::kSecond;
  /// Deliveries with a signature-invalid (but structurally valid) tag
  /// tolerated before finalize() flags a violation.  Legitimate Bloom
  /// false-positive chains need multiple independent ~max_fpp events per
  /// delivery; a real signature-path bug produces hundreds.
  std::uint64_t fp_leak_budget = 8;
  /// Cap on stored Violation records (the count keeps incrementing).
  std::size_t max_recorded = 64;
};

struct Violation {
  event::Time when = 0;
  std::string node;   // forwarder label, or "-" for run-level checks
  std::string what;
};

class InvariantChecker {
 public:
  /// The scenario must outlive the checker.  Call arm() before
  /// Scenario::run(), finalize() after.
  explicit InvariantChecker(sim::Scenario& scenario,
                            InvariantOptions options = {});

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Installs the per-node tracers and schedules the sampler.
  void arm();

  /// Stops workloads, drains `drain_grace` of simulated time, and runs
  /// the end-of-run checks.  Idempotent.
  void finalize();

  bool ok() const { return violation_count_ == 0; }
  std::uint64_t violation_count() const { return violation_count_; }
  const std::vector<Violation>& violations() const { return violations_; }

  /// Hex multiset accumulator (lane-wise sum of per-event SHA-256) over
  /// every packet event observed.  Interleaving-independent by
  /// construction; compared run-to-run, never golden-pinned.
  std::string trace_digest() const;

  std::uint64_t packets_observed() const { return packets_observed_; }
  std::uint64_t deliveries_checked() const { return deliveries_checked_; }
  std::uint64_t fp_leaks() const { return fp_leaks_; }

  /// Multi-line human-readable report (violations + counters).
  std::string report() const;

 private:
  void on_packet(const ndn::Forwarder& node,
                 const ndn::PacketVariant& packet, ndn::FaceId face,
                 bool is_rx);
  void check_delivery(const ndn::Forwarder& node, const ndn::Data& data,
                      event::Time now);
  void sample();
  void schedule_sample();
  void check_pits(const char* context);
  void add_violation(event::Time when, const std::string& node,
                     std::string what);
  bool signature_valid(const core::Tag& tag);

  sim::Scenario& scenario_;
  InvariantOptions options_;
  bool armed_ = false;
  bool finalized_ = false;

  util::Bytes chain_;  // multiset accumulator over per-event digests
  std::unordered_map<util::Bytes, bool, util::BytesHash> signature_cache_;
  std::unordered_map<net::NodeId, int> fpp_streak_;

  std::vector<Violation> violations_;
  std::uint64_t violation_count_ = 0;
  std::uint64_t packets_observed_ = 0;
  std::uint64_t deliveries_checked_ = 0;
  std::uint64_t fp_leaks_ = 0;
};

}  // namespace tactic::testing
