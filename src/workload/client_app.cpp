#include "workload/client_app.hpp"

#include <algorithm>

namespace tactic::workload {

ClientApp::ClientApp(ndn::Forwarder& node,
                     std::vector<ProviderApp*> providers,
                     ClientConfig config, util::ZipfDist popularity,
                     util::Rng rng)
    : UserApp(node, std::move(providers), config, std::move(popularity),
              rng),
      config_(std::move(config)),
      stream_(draw_target()),
      tags_(providers_.size()) {}

event::Time ClientApp::retry_backoff(std::size_t attempt) {
  const double cap = static_cast<double>(
      std::max<event::Time>(config_.retry_backoff_max, 1));
  double backoff = static_cast<double>(config_.retry_backoff_base);
  // Stop multiplying once past the ceiling: with a large `max_retries`
  // the unchecked exponential overflows double -> Time conversion.
  for (std::size_t i = 1; i < attempt && backoff < cap; ++i) {
    backoff *= config_.retry_backoff_factor;
  }
  const double jitter =
      1.0 + config_.retry_jitter * (2.0 * rng_.uniform_double() - 1.0);
  const double delay = std::min(backoff * jitter, cap);
  return std::max<event::Time>(1, static_cast<event::Time>(delay));
}

void ClientApp::release_parked_slots(std::size_t count, event::Time delay) {
  count = std::min(count, parked_slots_);
  parked_slots_ -= count;
  for (std::size_t i = 0; i < count; ++i) {
    node_.scheduler().schedule(delay + think_sample(),
                               [this] { fill_slot(); });
  }
}

void ClientApp::request_next() {
  if (next_chunk_ >=
      providers_[stream_.provider]->catalog().params().chunks_per_object) {
    stream_ = draw_target();
    next_chunk_ = 0;
  }
  const Catalog& catalog = providers_[stream_.provider]->catalog();

  // Registration gate: protected objects need a valid (unexpired) tag for
  // the current provider; public objects (AL 0) are fetched tag-free.
  // Expiry is judged on this node's *local* clock — under the clock-skew
  // fault model a client can honestly believe an expired tag live (and
  // vice versa); the edge's tolerance window is what absorbs that.
  const bool is_protected =
      catalog.access_level(stream_.object) != ndn::kPublicAccessLevel;
  const core::TagPtr& tag = tags_[stream_.provider];
  const event::Time local_now = node_.local_now();
  if (is_protected && !(tag && tag->expiry() > local_now)) {
    if (!registration_pending_) send_registration(stream_.provider);
    if (!tag_usable(tag, local_now)) {
      // Park the slot; it resumes when the tag arrives or the
      // registration fails (see on_data / the registration-timeout
      // handler).
      ++parked_slots_;
      return;
    }
    // Client half of outage grace: the tag just expired but stays
    // attached for the grace window — a grace-mode edge can still vouch
    // it — while re-registration keeps trying in the background.
  }

  const ndn::Name name = catalog.chunk_name(stream_.object, next_chunk_++);
  if (find(name) != nullptr) {
    // Already in flight (stream wrapped onto the same object); just move
    // on next time.
    schedule_slot_fill();
    return;
  }
  Request& request = track(name);
  request.provider = stream_.provider;
  request.needs_tag = is_protected;
  send_attempt(request, tag);
}

bool ClientApp::tag_usable(const core::TagPtr& tag,
                           event::Time local_now) const {
  if (!tag) return false;
  if (tag->expiry() > local_now) return true;
  return config_.expired_tag_grace > 0 &&
         tag->expiry() + config_.expired_tag_grace > local_now;
}

void ClientApp::schedule_renewal(std::size_t provider_index,
                                 core::TagPtr tag) {
  // Renewal target on this node's clock: T_e - lead, jittered uniformly
  // in [-jitter, +jitter] so a cohort whose tags were issued in the same
  // instant spreads its re-registrations instead of stampeding the
  // issuer.  The local-time delta is used as the scheduling delay
  // directly — under drift that is off by at most drift * lead, far
  // inside the jitter window.
  const double u = 2.0 * rng_.uniform_double() - 1.0;
  const event::Time target =
      tag->expiry() - config_.renewal_lead +
      static_cast<event::Time>(static_cast<double>(config_.renewal_jitter) *
                               u);
  const event::Time delay =
      std::max<event::Time>(1, target - node_.local_now());
  node_.scheduler().schedule(delay, [this, provider_index, tag] {
    if (!running_) return;
    if (tags_[provider_index] != tag) return;  // already replaced
    if (registration_pending_) return;         // renewal already underway
    ++counters_.proactive_renewals;
    send_registration(provider_index);
  });
}

void ClientApp::send_registration(std::size_t provider_index) {
  registration_pending_ = provider_index;
  registration_retries_ = 0;
  send_registration_attempt();
}

void ClientApp::send_registration_attempt() {
  ProviderApp& provider = *providers_[*registration_pending_];
  pending_registration_name_ = provider.registration_name(label(), rng_());

  auto interest = make_interest(pending_registration_name_);
  interest->payload_size = 64;  // modeled credential blob

  ++counters_.tags_requested;
  if (on_tag_request) on_tag_request(node_.scheduler().now());
  registration_timeout_ = node_.scheduler().schedule(
      loop_.interest_lifetime, [this] { on_registration_timeout(); });
  node_.inject_from_app(face_, std::move(interest));
}

void ClientApp::on_registration_timeout() {
  if (!registration_pending_) return;
  if (running_ && registration_retries_ < config_.max_retries) {
    // Same retransmission mechanism as chunks: backoff, then a fresh
    // registration Interest (new name nonce — a late response to the old
    // one no longer matches and is ignored).
    ++registration_retries_;
    ++counters_.registration_retransmissions;
    node_.scheduler().schedule(retry_backoff(registration_retries_), [this] {
      if (registration_pending_) send_registration_attempt();
    });
    return;
  }
  // Retry budget exhausted: clear the pending marker and release one
  // parked slot after a jittered backoff (continuing the attempt
  // exponential); that slot will re-register.  A fixed delay here would
  // resynchronize every client a recovering provider starved.
  registration_pending_.reset();
  release_parked_slots(1, retry_backoff(++registration_refusal_streak_));
}

void ClientApp::on_data(const ndn::Data& data) {
  if (data.is_registration_response) {
    if (registration_pending_ && pending_registration_name_ == data.name) {
      const std::size_t provider_index = *registration_pending_;
      registration_pending_.reset();
      node_.scheduler().cancel(registration_timeout_);
      if (data.nack_attached || !data.tag) {
        ++counters_.registrations_refused;
        // Release one parked slot to retry later, after a jittered
        // exponential backoff — refusal waves from a recovering
        // provider must not resynchronize.
        release_parked_slots(1,
                             retry_backoff(++registration_refusal_streak_));
        return;
      }
      tags_[provider_index] = data.tag;
      ++counters_.tags_received;
      registration_refusal_streak_ = 0;
      if (on_tag_receive) on_tag_receive(node_.scheduler().now());
      if (config_.proactive_renewal) {
        schedule_renewal(provider_index, data.tag);
      }
      // Wake every parked slot (with think-time jitter).
      release_parked_slots(parked_slots_, 0);
    }
    return;
  }

  Request* request = find(data.name);
  if (request == nullptr) return;  // late duplicate
  const event::Time now = node_.scheduler().now();
  if (data.nack_attached) {
    count_nack(data.nack_reason);
    if (data.nack_reason == ndn::NackReason::kRouterOverloaded) {
      ++counters_.overload_nacks;
      retry_or_abandon(*request);
      return;
    }
  } else if (config_.verify_content && config_.verify_pki != nullptr &&
             !verify_content_signature(data)) {
    // Fake content (paper Section 6.B): "the client can validate the
    // content by verifying its signature" and drop it.
    ++counters_.content_verification_failures;
  } else {
    ++counters_.chunks_received;
    if (on_latency_sample) {
      on_latency_sample(now, event::to_seconds(now - request->sent_at));
    }
    if (request->retries > 0 && on_recovery_sample) {
      on_recovery_sample(now,
                         event::to_seconds(now - request->first_sent_at));
    }
  }
  end(*request);
}

bool ClientApp::verify_content_signature(const ndn::Data& data) const {
  if (!data.signature) return false;
  const crypto::RsaPublicKey* key =
      config_.verify_pki->find(data.provider_key_locator);
  if (key == nullptr) return false;
  return key->verify_pkcs1_sha256(data.signed_portion(), *data.signature);
}

void ClientApp::on_nack(const ndn::Nack& nack) {
  if (registration_pending_ && pending_registration_name_ == nack.name) {
    registration_pending_.reset();
    node_.scheduler().cancel(registration_timeout_);
    ++counters_.registrations_refused;
    // Jittered exponential, as in on_data's refusal branch.
    release_parked_slots(1, retry_backoff(++registration_refusal_streak_));
    return;
  }
  Request* request = find(nack.name);
  if (request == nullptr) return;
  count_nack(nack.reason);
  if (nack.reason == ndn::NackReason::kRouterOverloaded) {
    ++counters_.overload_nacks;
    retry_or_abandon(*request);
    return;
  }
  if (nack.reason == ndn::NackReason::kAccessPathMismatch) {
    // Mobility: the edge router no longer recognizes our location, so
    // every held tag is bound to the old one.  Drop them all; the next
    // window slot re-registers ("a mobile client needs to request a new
    // tag every time she moves to a new location", paper Section 4.A).
    for (auto& tag : tags_) tag.reset();
  }
  end(*request);
}

void ClientApp::on_deadline(Request& request) {
  if (!request.backoff) {
    ++counters_.timeouts;
    retry_or_abandon(request);
    return;
  }
  // The backoff ended.  Re-resolve the tag: a re-registration during the
  // backoff may have replaced it.  If it expired instead (on this node's
  // local clock, minus any client-side grace), a resend would only be
  // silently dropped by Protocol 1, so surrender the slot to the
  // registration gate rather than burn the retry budget (this is not a
  // loss abandonment).
  const core::TagPtr& tag = tags_[request.provider];
  if (request.needs_tag && !tag_usable(tag, node_.local_now())) {
    end(request);
    return;
  }
  ++counters_.retransmissions;
  send_attempt(request, tag);
}

void ClientApp::retry_or_abandon(Request& request) {
  if (running_ && request.retries < config_.max_retries) {
    // The slot token stays on this request through the backoff.
    ++request.retries;
    request.backoff = true;
    arm(request,
        node_.scheduler().now() + retry_backoff(request.retries));
    return;
  }
  if (running_ && config_.max_retries > 0) ++counters_.chunks_abandoned;
  end(request);
}

}  // namespace tactic::workload
