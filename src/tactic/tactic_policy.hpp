#pragma once
// TACTIC's router-side protocols as AccessControlPolicy implementations.
//
//  - ApPolicy (access points): accumulates the rolling access path into
//    each upstream Interest (Section 4.A).
//  - EdgeTacticPolicy (R_E): Protocol 2 plus the edge half of Protocol 1.
//  - CoreTacticPolicy (R_C): Protocol 3 when this node is a content
//    router (cache hit) and Protocol 4 when it is an intermediate router
//    (PIT aggregation, per-aggregate validation on the data path).
//
// The policies here are thin adapters: they translate Forwarder hooks
// (packet fields, PIT records, NACK plumbing) into ValidationContext runs
// of the role validations in tactic/pipeline.hpp, where the actual
// validation logic lives.  Each router owns one ValidationEngine (its
// Bloom filter, counters and overload state); validated state is never
// shared between nodes except through the flag-F cooperation the paper
// defines.  All crypto is real: signature verification runs the RSA code
// in crypto/ and its *simulated* cost is charged through the ComputeModel
// via the engine's charge() seam.

#include <optional>

#include "ndn/forwarder.hpp"
#include "ndn/policy.hpp"
#include "tactic/pipeline.hpp"

namespace tactic::core {

/// Common base for TACTIC routers: owns the ValidationEngine and exposes
/// its observable state (counters, BF, overload structures) under the
/// accessor names that tests, benches and the invariant checker consume.
class TacticRouterPolicy : public ndn::AccessControlPolicy {
 public:
  TacticRouterPolicy(TacticConfig config, const TrustAnchors& anchors,
                     ComputeModel compute, util::Rng rng)
      : engine_(std::move(config), anchors, compute, rng) {}

  const TacticConfig& config() const { return engine_.config(); }
  const TacticCounters& counters() const { return engine_.counters(); }
  const bloom::BloomFilter& bloom() const { return engine_.bloom(); }
  std::uint64_t bf_resets() const { return engine_.bloom().reset_count(); }
  const ValidationLanes& validation_lanes() const {
    return engine_.validation_lanes();
  }
  const NegativeTagCache& neg_cache() const { return engine_.neg_cache(); }
  /// Whether a staged-reset drain window is open at `now`.
  bool draining_active(event::Time now) const {
    return engine_.draining_active(now);
  }
  /// Adaptive-layer gauges (docs/OVERLOAD.md, "Adaptive control & face
  /// quarantine"); zero while the layer is inactive.
  double adaptive_gradient() const {
    const auto* controller = engine_.gradient_controller();
    return controller == nullptr ? 0.0 : controller->gradient();
  }
  std::uint64_t adaptive_limit() const {
    const auto* controller = engine_.gradient_controller();
    return controller == nullptr ? 0 : controller->concurrency_limit();
  }

  /// Optional traitor tracer (non-owning; may be null).  Edge routers
  /// report access-path mismatches to it.
  void set_traitor_tracer(TraitorTracer* tracer) {
    engine_.set_tracer(tracer);
  }

  /// Crash recovery: the Bloom filter of validated tags is volatile, so a
  /// restarted router wipes it (without counting a Table V saturation
  /// reset) and restarts the inter-reset request window.  Until the
  /// filter refills, every lookup misses — edges stamp F=0 ("cannot
  /// vouch") and upstream validators fall back to signature checks.
  void on_restart(ndn::Forwarder& node) override;

 protected:
  ValidationEngine engine_;
};

/// Access-point behaviour: fold this entity's identity hash into the
/// Interest's rolling access path and forward.
class ApPolicy : public ndn::AccessControlPolicy {
 public:
  explicit ApPolicy(const std::string& entity_label);

  InterestDecision on_interest(ndn::Forwarder& node, ndn::FaceId in_face,
                               ndn::CowInterest& interest) override;

 private:
  std::uint64_t id_hash_;
};

/// Protocol 2 (+ Protocol 1 edge half): the edge-router policy.
class EdgeTacticPolicy : public TacticRouterPolicy {
 public:
  using TacticRouterPolicy::TacticRouterPolicy;

  InterestDecision on_interest(ndn::Forwarder& node, ndn::FaceId in_face,
                               ndn::CowInterest& interest) override;
  event::Time on_data(ndn::Forwarder& node, ndn::FaceId in_face,
                      const ndn::Data& data) override;
  DownstreamDecision on_data_to_downstream(ndn::Forwarder& node,
                                           const ndn::PitInRecord& record,
                                           const ndn::Data& incoming,
                                           ndn::CowData& outgoing) override;
  void on_restart(ndn::Forwarder& node) override;

 private:
  /// Outage-grace input signal (GraceConfig): grace engages when a
  /// registration Interest this edge forwarded has gone unanswered for
  /// `provider_silence`.  Registration *responses* flowing back clear
  /// the pending marker, so a reachable provider keeps grace off.
  /// Counts the off→on transitions (`grace_engagements`).
  bool grace_active(event::Time now);

  /// When the oldest still-unanswered registration Interest passed by.
  std::optional<event::Time> pending_registration_since_;
  bool grace_engaged_ = false;
};

/// Protocols 3 & 4: the core-router policy (content-router behaviour on
/// cache hits, intermediate-router behaviour on aggregated data).
class CoreTacticPolicy : public TacticRouterPolicy {
 public:
  using TacticRouterPolicy::TacticRouterPolicy;

  CacheHitDecision on_cache_hit(ndn::Forwarder& node, ndn::FaceId in_face,
                                const ndn::Interest& interest,
                                ndn::CowData& response) override;
  DownstreamDecision on_data_to_downstream(ndn::Forwarder& node,
                                           const ndn::PitInRecord& record,
                                           const ndn::Data& incoming,
                                           ndn::CowData& outgoing) override;
};

}  // namespace tactic::core
