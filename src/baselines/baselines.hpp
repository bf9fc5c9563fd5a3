#pragma once
// Baseline access-control mechanisms — the comparison points of the
// paper's Table II, reduced to their architectural essence so that the
// same workload can run under each and the cost differences (who does the
// crypto, whether caches are usable, whether attackers waste bandwidth)
// are measured rather than asserted.
//
//  - NullPolicy (in ndn/policy.hpp): plain NDN, no access control.
//  - ClientSideAcPolicy: client-end enforcement (Misra et al. [3][7],
//    Mangili et al. [5]): the network serves everyone; only authorized
//    clients can decrypt.  Unauthorized users still pull encrypted bytes
//    — the bandwidth-waste / DDoS exposure TACTIC eliminates.
//  - PerRequestAuthPolicy: provider-side per-request authentication
//    (Kurihara et al. [9], Wood & Uzun [14]): protected content is never
//    served from in-network caches; every request reaches the provider,
//    which verifies it.  Requires the provider to be always online.
//  - ProbBfPolicy: router-enforced probabilistic filtering (Chen et
//    al. [8]): every router keeps a Bloom filter of authorized clients'
//    public keys and verifies a client signature on every request it
//    forwards — constant-time filtering but per-hop crypto.

#include <memory>
#include <string>
#include <unordered_set>

#include "bloom/bloom_filter.hpp"
#include "ndn/forwarder.hpp"
#include "ndn/policy.hpp"
#include "tactic/compute_model.hpp"
#include "tactic/tactic_policy.hpp"
#include "util/rng.hpp"

namespace tactic::baselines {

/// Client-end enforcement: routers are plain NDN.  (The behavioural
/// difference lives in the scenario: providers serve everyone and
/// decryption ability is what separates clients from attackers.)
class ClientSideAcPolicy : public ndn::NullPolicy {};

/// Provider-side per-request authentication: suppress cache reuse (and
/// caching) of protected content so the always-online provider sees, and
/// authenticates, every request.  It does no per-tag validation of its
/// own, only cache/aggregation suppression, so it needs no
/// ValidationEngine.
class PerRequestAuthPolicy : public ndn::AccessControlPolicy {
 public:
  explicit PerRequestAuthPolicy(const core::TrustAnchors& anchors)
      : anchors_(anchors) {}

  CacheHitDecision on_cache_hit(ndn::Forwarder& node, ndn::FaceId in_face,
                                const ndn::Interest& interest,
                                ndn::CowData& response) override;
  /// Only the requester the provider actually authenticated (the one
  /// whose credential rides back in the answer) may receive protected
  /// content; PIT-aggregated bystanders must re-request and be
  /// authenticated themselves.  This is the aggregation analogue of "no
  /// cache reuse".
  DownstreamDecision on_data_to_downstream(ndn::Forwarder& node,
                                           const ndn::PitInRecord& record,
                                           const ndn::Data& incoming,
                                           ndn::CowData& outgoing) override;
  bool may_cache(const ndn::Forwarder& node, const ndn::Data& data) override;

 private:
  const core::TrustAnchors& anchors_;
};

/// Chen-style router filtering: a Bloom filter of authorized client key
/// locators at every router, plus a per-request client-signature
/// verification charge.  The authorized set is preloaded by the scenario
/// (the always-online publisher of [8] pushes it).
///
/// Runs on the same ValidationEngine as TACTIC (its BF, counters and
/// charge() seam): the Interest path is the authorized-set BF filter,
/// then the per-hop signature charge.  The lazy authorized-set load's
/// timing — first packet, before the registration check — is part of
/// the observable insertion counts.
class ProbBfPolicy : public ndn::AccessControlPolicy {
 public:
  struct Shared {
    /// Key locators of authorized clients (publisher-distributed).
    std::unordered_set<std::string> authorized;
  };

  ProbBfPolicy(std::shared_ptr<const Shared> shared,
               bloom::BloomParams bloom_params, core::ComputeModel compute,
               util::Rng rng);

  InterestDecision on_interest(ndn::Forwarder& node, ndn::FaceId in_face,
                               ndn::CowInterest& interest) override;

  const core::TacticCounters& counters() const { return engine_.counters(); }
  const bloom::BloomFilter& bloom() const { return engine_.bloom(); }

  /// A restarted router loses its filter and lazily reloads it from the
  /// publisher-distributed membership list on the next protected request.
  void on_restart(ndn::Forwarder& node) override;

 private:
  std::shared_ptr<const Shared> shared_;
  /// No scenario-wide trust state in this baseline: the engine only needs
  /// the anchors reference for primitives this policy never calls.
  core::TrustAnchors anchors_;
  core::ValidationEngine engine_;
  bool bloom_loaded_ = false;
};

}  // namespace tactic::baselines
