#include "tactic/tactic_policy.hpp"

#include "tactic/access_path.hpp"
#include "tactic/registration.hpp"

namespace tactic::core {

namespace {

/// Re-stamps this record's own tag over the echo meant for another
/// downstream, clearing any NACK the incoming copy carried.
void stamp_record_echo(const ndn::PitInRecord& record, ndn::Data& outgoing) {
  outgoing.tag = record.tag;
  outgoing.tag_wire_size = record.tag_wire_size;
  outgoing.nack_attached = false;
  outgoing.nack_reason = ndn::NackReason::kNone;
}

/// The one shared Edge/Core translation of an aggregate-validation
/// verdict into the per-record forwarding decision (the deduplicated
/// NACK-attachment path): silent rejects drop the record, reasoned
/// rejects and sheds forward it with the NACK attached.
ndn::AccessControlPolicy::DownstreamDecision apply_aggregate_verdict(
    const Verdict& verdict, const ValidationContext& ctx,
    ndn::CowData& outgoing) {
  ndn::AccessControlPolicy::DownstreamDecision decision;
  decision.compute = ctx.compute;
  decision.deferred = ctx.deferred;  // batched verdicts leave at flush time
  if (ctx.flag_f_out) outgoing.edit().flag_f = *ctx.flag_f_out;
  switch (verdict.kind) {
    case Verdict::Kind::kContinue:
    case Verdict::Kind::kVouch:
      break;
    case Verdict::Kind::kReject:
      if (verdict.silent) {
        decision.forward = false;
        break;
      }
      [[fallthrough]];
    case Verdict::Kind::kShed:
      decision.attach_nack = true;
      decision.nack_reason = verdict.reason;
      break;
  }
  return decision;
}

}  // namespace

void TacticRouterPolicy::on_restart(ndn::Forwarder& /*node*/) {
  engine_.wipe_volatile();
}

// ---------------------------------------------------------------------------
// Access points
// ---------------------------------------------------------------------------

ApPolicy::ApPolicy(const std::string& entity_label)
    : id_hash_(entity_id_hash(entity_label)) {}

ndn::AccessControlPolicy::InterestDecision ApPolicy::on_interest(
    ndn::Forwarder& /*node*/, ndn::FaceId /*in_face*/,
    ndn::CowInterest& interest) {
  interest.edit().access_path =
      accumulate_access_path(interest->access_path, id_hash_);
  return {};
}

// ---------------------------------------------------------------------------
// Edge routers — Protocol 2
// ---------------------------------------------------------------------------

bool EdgeTacticPolicy::grace_active(event::Time now) {
  if (!config().grace.enabled) return false;
  const bool active =
      pending_registration_since_.has_value() &&
      now - *pending_registration_since_ >= config().grace.provider_silence;
  if (active && !grace_engaged_) ++engine_.counters().grace_engagements;
  grace_engaged_ = active;
  return active;
}

void EdgeTacticPolicy::on_restart(ndn::Forwarder& node) {
  TacticRouterPolicy::on_restart(node);
  // The silence marker is as volatile as the PIT entry it shadows; the
  // engagement counter in TacticCounters survives like all lifetime
  // counters.
  pending_registration_since_.reset();
  grace_engaged_ = false;
}

ndn::AccessControlPolicy::InterestDecision EdgeTacticPolicy::on_interest(
    ndn::Forwarder& node, ndn::FaceId in_face, ndn::CowInterest& interest) {
  InterestDecision decision;

  // Registration Interests carry no tag by definition; let them through to
  // the provider.
  if (is_registration_name(interest->name)) {
    if (config().grace.enabled && !pending_registration_since_) {
      pending_registration_since_ = node.scheduler().now();
    }
    return decision;
  }

  // Public prefixes need no access control at the edge.
  if (!engine_.anchors().is_protected(interest->name)) return decision;

  const event::Time now = node.scheduler().now();

  // Adaptive layer: a quarantined face's traffic is refused outright —
  // one compromised station cannot keep dragging the validation queue
  // toward the shed line.  Registration Interests (above) always flow,
  // so a quarantined legitimate user can still renew an expired tag and
  // clear itself on the next re-admission probe.
  if (!engine_.quarantine_admits(in_face, now)) {
    decision.action = InterestDecision::Action::kDropWithNack;
    decision.nack_reason = ndn::NackReason::kRouterOverloaded;
    return decision;
  }

  if (!interest->tag) {
    // Threat (a): private content requested without possessing a tag.
    ++engine_.counters().no_tag_rejections;
    engine_.observe_face_verdict(in_face, /*good=*/false, now);
    decision.action = InterestDecision::Action::kDropWithNack;
    decision.nack_reason = ndn::NackReason::kNoTag;
    return decision;
  }

  engine_.count_request();
  ValidationContext ctx(engine_, *interest->tag, now);
  ctx.local_now = node.local_now();
  ctx.clock_skewed = !node.clock().identity();
  ctx.grace_active = grace_active(now);
  ctx.in_face = in_face;
  ctx.interest_name = &interest->name;
  ctx.access_path = interest->access_path;
  const Verdict verdict = validate_edge_interest(ctx);

  decision.compute = ctx.compute;
  if (ctx.flag_f_out) interest.edit().flag_f = *ctx.flag_f_out;
  switch (verdict.kind) {
    case Verdict::Kind::kContinue:
      break;
    case Verdict::Kind::kVouch:
      engine_.observe_face_verdict(in_face, /*good=*/true, now);
      interest.edit().flag_f = verdict.flag_f;
      break;
    case Verdict::Kind::kReject:
      // Any reject here is a tag-validity failure (pre-check, blacklist,
      // access path, negative cache) — an outlier signal for the face.
      // Sheds are a load signal, not a verdict, and are not observed.
      engine_.observe_face_verdict(in_face, /*good=*/false, now);
      decision.action = verdict.silent
                            ? InterestDecision::Action::kDrop
                            : InterestDecision::Action::kDropWithNack;
      decision.nack_reason = verdict.reason;
      break;
    case Verdict::Kind::kShed:
      decision.action = InterestDecision::Action::kDropWithNack;
      decision.nack_reason = verdict.reason;
      break;
  }
  return decision;
}

event::Time EdgeTacticPolicy::on_data(ndn::Forwarder& node,
                                      ndn::FaceId /*in_face*/,
                                      const ndn::Data& data) {
  event::Time compute = 0;
  const event::Time now = node.scheduler().now();
  if (data.is_registration_response) {
    // Any registration response proves the provider reachable: the
    // outage-grace silence marker resets (tag or refusal alike).
    pending_registration_since_.reset();
    grace_engaged_ = false;
  }
  if (data.is_registration_response && data.tag) {
    // Protocol 2, lines 11-12: a fresh tag from the producer is inserted
    // into the edge BF as it passes by.
    engine_.bloom_insert(*data.tag, now, compute);
    return compute;
  }
  if (config().overload.enabled && data.tag && data.nack_attached &&
      data.nack_reason == ndn::NackReason::kInvalidSignature) {
    // An upstream validator condemned this tag.  Remember the verdict so
    // the flood's repeats die at this edge without another round trip.
    engine_.remember_invalid(*data.tag, now);
  }
  if (data.tag && !data.nack_attached && data.flag_f == 0.0) {
    // Protocol 2, lines 14-15: F == 0 in the returning content means the
    // tag was not in this BF at forwarding time and an upstream router
    // (or the provider) vouched for it; insert without re-verifying.
    engine_.bloom_insert(*data.tag, now, compute);
  }
  return compute;
}

ndn::AccessControlPolicy::DownstreamDecision
EdgeTacticPolicy::on_data_to_downstream(ndn::Forwarder& node,
                                        const ndn::PitInRecord& record,
                                        const ndn::Data& incoming,
                                        ndn::CowData& outgoing) {
  DownstreamDecision decision;
  if (incoming.is_registration_response) return decision;  // forward as-is

  // Untagged record (public content request): forward without the tag
  // echo meant for someone else.  Editing only when the envelope is
  // actually dirty keeps the already-clean fan-out zero-copy.
  if (!record.tag) {
    if (outgoing->tag || outgoing->tag_wire_size != 0 ||
        outgoing->nack_attached ||
        outgoing->nack_reason != ndn::NackReason::kNone) {
      ndn::Data& mutated = outgoing.edit();
      mutated.tag.reset();
      mutated.tag_wire_size = 0;
      mutated.nack_attached = false;
      mutated.nack_reason = ndn::NackReason::kNone;
    }
    return decision;
  }

  const event::Time now = node.scheduler().now();
  const bool is_primary =
      incoming.tag && incoming.tag->same_tag(*record.tag);
  if (is_primary) {
    if (incoming.nack_attached) {
      if (config().overload.enabled &&
          incoming.nack_reason == ndn::NackReason::kRouterOverloaded) {
        // An upstream router shed this request.  Unlike a validity NACK,
        // the client should hear about it (and back off) rather than
        // burn its Interest lifetime: forward with the NACK attached.
        // No outlier observation — back-pressure is a load signal, not
        // a verdict on the face's tags.
        return decision;
      }
      // An upstream validator condemned this record's tag — attribute
      // the verdict to the downstream face that sent it.  This is also
      // where verdicts whose delivery the batching layer deferred land:
      // the crypto outcome was known at verification time upstream, and
      // the NACK-carrying Data reaches here at flush time.
      engine_.observe_face_verdict(record.face, /*good=*/false, now);
      // Protocol 2, lines 19-20: content arrived with a NACK for this
      // tag; drop the request (the client times out).
      decision.forward = false;
    } else {
      // Clean delivery for this record's tag: the face is behaving.
      engine_.observe_face_verdict(record.face, /*good=*/true, now);
    }
    return decision;
  }

  // Protocol 2, lines 22-23: validate every other aggregated tag.
  stamp_record_echo(record, outgoing.edit());
  engine_.bind_scheduler(&node.scheduler());
  ValidationContext ctx(engine_, *record.tag, now);
  ctx.local_now = node.local_now();
  ctx.clock_skewed = !node.clock().identity();
  ctx.content = &incoming;
  const Verdict verdict = validate_edge_aggregate(ctx);
  if (verdict.kind == Verdict::Kind::kReject) {
    engine_.observe_face_verdict(record.face, /*good=*/false, now);
  } else if (verdict.kind == Verdict::Kind::kVouch) {
    engine_.observe_face_verdict(record.face, /*good=*/true, now);
  }
  return apply_aggregate_verdict(verdict, ctx, outgoing);
}

// ---------------------------------------------------------------------------
// Core routers — Protocols 3 and 4
// ---------------------------------------------------------------------------

ndn::AccessControlPolicy::CacheHitDecision CoreTacticPolicy::on_cache_hit(
    ndn::Forwarder& node, ndn::FaceId /*in_face*/,
    const ndn::Interest& interest, ndn::CowData& response) {
  CacheHitDecision decision;

  // Public data: "allows an r_C^c to return the requested content without
  // tag verification."
  if (response->access_level == ndn::kPublicAccessLevel) return decision;

  if (!interest.tag) {
    // Tagless request for protected content: the content still flows (to
    // satisfy any valid aggregates downstream), marked invalid.
    ndn::Data& mutated = response.edit();
    mutated.nack_attached = true;
    mutated.nack_reason = ndn::NackReason::kNoTag;
    return decision;
  }

  engine_.count_request();
  engine_.bind_scheduler(&node.scheduler());
  ValidationContext ctx(engine_, *interest.tag, node.scheduler().now());
  ctx.local_now = node.local_now();
  ctx.clock_skewed = !node.clock().identity();
  ctx.content = &*response;
  ctx.flag_f_in = interest.flag_f;
  const Verdict verdict = validate_content_cache_hit(ctx);

  decision.compute = ctx.compute;
  decision.deferred = ctx.deferred;  // batched verdicts leave at flush time
  if (ctx.flag_f_out) response.edit().flag_f = *ctx.flag_f_out;
  if (verdict.kind == Verdict::Kind::kReject ||
      verdict.kind == Verdict::Kind::kShed) {
    // Unlike the Interest path, the content still flows (for any valid
    // aggregates downstream), marked invalid or overloaded.
    ndn::Data& mutated = response.edit();
    mutated.nack_attached = true;
    mutated.nack_reason = verdict.reason;
  }
  return decision;
}

ndn::AccessControlPolicy::DownstreamDecision
CoreTacticPolicy::on_data_to_downstream(ndn::Forwarder& node,
                                        const ndn::PitInRecord& record,
                                        const ndn::Data& incoming,
                                        ndn::CowData& outgoing) {
  DownstreamDecision decision;
  if (incoming.is_registration_response) return decision;

  // Protocol 4, lines 6-10: the record whose request fetched the content
  // is forwarded as-is (with its NACK if one is attached).
  const bool is_primary =
      incoming.tag && record.tag && incoming.tag->same_tag(*record.tag);
  if (is_primary) return decision;

  // Aggregated requests (lines 11-26).
  stamp_record_echo(record, outgoing.edit());

  if (!record.tag) {
    if (incoming.access_level != ndn::kPublicAccessLevel) {
      decision.attach_nack = true;
      decision.nack_reason = ndn::NackReason::kNoTag;
    }
    return decision;
  }
  if (incoming.access_level == ndn::kPublicAccessLevel) return decision;

  engine_.count_request();
  engine_.bind_scheduler(&node.scheduler());
  ValidationContext ctx(engine_, *record.tag, node.scheduler().now());
  ctx.local_now = node.local_now();
  ctx.clock_skewed = !node.clock().identity();
  ctx.content = &incoming;
  ctx.flag_f_in = record.flag_f;
  return apply_aggregate_verdict(validate_core_aggregate(ctx), ctx, outgoing);
}

}  // namespace tactic::core
