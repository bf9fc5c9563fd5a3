#include "baselines/baselines.hpp"

#include "tactic/registration.hpp"
#include "tactic/tag.hpp"
#include "util/bytes.hpp"

namespace tactic::baselines {

ndn::AccessControlPolicy::CacheHitDecision
PerRequestAuthPolicy::on_cache_hit(ndn::Forwarder& /*node*/,
                                   ndn::FaceId /*in_face*/,
                                   const ndn::Interest& interest,
                                   ndn::CowData& /*response*/) {
  CacheHitDecision decision;
  // Protected content may not be answered from a cache — the provider
  // must authenticate every request itself.
  decision.respond = !anchors_.is_protected(interest.name);
  return decision;
}

ndn::AccessControlPolicy::DownstreamDecision
PerRequestAuthPolicy::on_data_to_downstream(ndn::Forwarder& /*node*/,
                                            const ndn::PitInRecord& record,
                                            const ndn::Data& incoming,
                                            ndn::CowData& outgoing) {
  DownstreamDecision decision;
  if (incoming.is_registration_response ||
      incoming.access_level == ndn::kPublicAccessLevel) {
    return decision;
  }
  const bool is_authenticated_requester =
      incoming.tag && record.tag && incoming.tag->same_tag(*record.tag);
  if (!is_authenticated_requester) {
    decision.forward = false;
    return decision;
  }
  ndn::Data& mutated = outgoing.edit();
  mutated.tag = record.tag;
  mutated.tag_wire_size = record.tag_wire_size;
  return decision;
}

bool PerRequestAuthPolicy::may_cache(const ndn::Forwarder& /*node*/,
                                     const ndn::Data& data) {
  if (data.is_registration_response) return false;
  return data.access_level == ndn::kPublicAccessLevel;
}

namespace {

core::TacticConfig prob_bf_config(bloom::BloomParams bloom_params) {
  core::TacticConfig config;
  config.bloom = bloom_params;
  return config;  // overload layer stays disabled: charges are instant
}

}  // namespace

ProbBfPolicy::ProbBfPolicy(std::shared_ptr<const Shared> shared,
                           bloom::BloomParams bloom_params,
                           core::ComputeModel compute, util::Rng rng)
    : shared_(std::move(shared)),
      engine_(prob_bf_config(bloom_params), anchors_, compute, rng) {}

ndn::AccessControlPolicy::InterestDecision ProbBfPolicy::on_interest(
    ndn::Forwarder& node, ndn::FaceId /*in_face*/,
    ndn::CowInterest& interest) {
  InterestDecision decision;

  // Lazy load of the publisher-distributed authorized set (done on first
  // packet so construction stays cheap for hundreds of routers).
  if (!bloom_loaded_) {
    bloom_loaded_ = true;
    for (const std::string& locator : shared_->authorized) {
      engine_.bloom().insert(util::to_bytes(locator));
      ++engine_.counters().bf_insertions;
    }
  }

  // Registration traffic is not content; let it through.
  if (core::is_registration_name(interest->name)) return decision;

  // The requester's identity rides in its credential (we reuse the tag's
  // client key locator as the client-identity carrier).
  core::TacticCounters& counters = engine_.counters();
  if (!interest->tag) {
    ++counters.no_tag_rejections;
    decision.action = InterestDecision::Action::kDropWithNack;
    decision.nack_reason = ndn::NackReason::kNoTag;
    return decision;
  }

  // BF membership of the client's public key (early filtration of [8]).
  const event::Time now = node.scheduler().now();
  ++counters.bf_lookups;
  engine_.charge(now, engine_.compute_model().bf_lookup_cost(engine_.rng()),
                 decision.compute, core::CostKind::kBf);
  if (!engine_.bloom().contains(
          util::to_bytes(interest->tag->client_key_locator()))) {
    decision.action = InterestDecision::Action::kDropWithNack;
    decision.nack_reason = ndn::NackReason::kInvalidSignature;
    return decision;
  }

  // Per-request client-signature verification at every router — the
  // per-hop crypto burden that motivates TACTIC's Bloom-filter reuse.
  // Only its cost is modelled: the authorized-set filter above already
  // decided.
  ++counters.sig_verifications;
  engine_.charge(now, engine_.compute_model().sig_verify_cost(engine_.rng()),
                 decision.compute, core::CostKind::kSignature);
  return decision;
}

void ProbBfPolicy::on_restart(ndn::Forwarder& /*node*/) {
  engine_.bloom().wipe();
  bloom_loaded_ = false;
}

}  // namespace tactic::baselines
