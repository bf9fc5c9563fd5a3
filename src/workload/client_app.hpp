#pragma once
// The paper's "Zipf-window client" (Section 8.A).
//
// Runs the UserApp request loop (user_app.hpp) and streams each drawn
// object's chunks in order through its window.  It registers with a
// provider whenever it lacks a valid tag for it, resends a timed-out
// chunk after a jittered exponential backoff, and backs off at once when
// a router sheds its request.  A think-time gap paces each slot
// (calibrated in EXPERIMENTS.md to the paper's observed per-client
// request rates).

#include <functional>
#include <optional>
#include <vector>

#include "workload/user_app.hpp"

namespace tactic::workload {

struct ClientConfig : UserConfig {
  /// Retransmission policy, shared by chunk Interests and registrations
  /// (including *refused* registrations, which back off through the same
  /// jittered exponential keyed on the refusal streak — a fixed refusal
  /// delay would resynchronize every client a recovering provider
  /// starved):
  /// a timeout triggers a resend after an exponential backoff with
  /// multiplicative jitter, up to `max_retries` resends; then the chunk
  /// is abandoned (the window slot frees).  `max_retries = 0` restores
  /// the pre-retransmission behaviour (one shot, timeout = loss).
  std::size_t max_retries = 3;
  event::Time retry_backoff_base = 500 * event::kMillisecond;
  double retry_backoff_factor = 2.0;
  /// Ceiling on the exponential backoff (applied after jitter).  Keeps a
  /// large `max_retries` from overflowing the delay arithmetic or
  /// parking a chunk for hours.
  event::Time retry_backoff_max = 30 * event::kSecond;
  /// Backoff is scaled by a uniform factor in [1-j, 1+j] (desynchronizes
  /// clients hammering a recovering router).
  double retry_jitter = 0.25;
  /// Verify content signatures against `verify_pki` before counting a
  /// chunk as received (paper Section 6.B: "the client can validate the
  /// content by verifying its signature").  Requires the provider to
  /// sign content.
  bool verify_content = false;
  const crypto::Pki* verify_pki = nullptr;
  /// Proactive tag renewal (docs/FAULTS.md, "Clock skew & tag
  /// lifecycle"): re-register at `T_e - renewal_lead` plus a uniform
  /// draw from [-renewal_jitter, +renewal_jitter], instead of
  /// discovering expiry through rejected Interests.  The jitter
  /// de-synchronizes the renewal storm of a cohort whose tags were all
  /// issued in the same instant.  Off by default; a disabled feature
  /// consumes zero RNG draws (bit-identical streams).
  bool proactive_renewal = false;
  event::Time renewal_lead = 2 * event::kSecond;
  event::Time renewal_jitter = event::kSecond;
  /// Outage grace, client half: keep attaching a tag for this long past
  /// its T_e (re-registering in the background the whole time), so
  /// grace-mode edges (core::GraceConfig) can still vouch it while the
  /// provider is down.  0 (default) = strict: expired tags are never
  /// sent.
  event::Time expired_tag_grace = 0;
};

class ClientApp : public UserApp {
 public:
  /// `providers` must outlive the app.  The client's node FIB must
  /// already default-route toward its access point.  The first
  /// (provider, object) target is drawn here, before start() draws the
  /// start jitter.
  ClientApp(ndn::Forwarder& node, std::vector<ProviderApp*> providers,
            ClientConfig config, util::ZipfDist popularity, util::Rng rng);

  /// The client's current tag for provider `index` (may be null or
  /// expired).  Exposed for the tag-sharing threat scenarios and tests.
  core::TagPtr current_tag(std::size_t index) const {
    return index < tags_.size() ? tags_[index] : core::TagPtr{};
  }

  /// Metric hooks (wired by the experiment harness).
  std::function<void(event::Time, double)> on_latency_sample;
  std::function<void(event::Time)> on_tag_request;
  std::function<void(event::Time)> on_tag_receive;
  /// Recovery latency: for chunks that needed at least one
  /// retransmission, the time from the *first* attempt to delivery.
  std::function<void(event::Time, double)> on_recovery_sample;

 private:
  void request_next() override;
  /// The Interest timed out (back off), or a backoff ended (resend).
  void on_deadline(Request& request) override;
  /// A Data or NACK that arrives during a backoff ends the request too:
  /// the resend would have been wasted.
  void on_data(const ndn::Data& data) override;
  void on_nack(const ndn::Nack& nack) override;

  void release_parked_slots(std::size_t count, event::Time delay);
  /// A timeout, or a router shedding the request (explicit
  /// kRouterOverloaded, which backs off at once instead of waiting out
  /// the timeout): resend after a backoff while retries last, else
  /// abandon the chunk.  An overload NACK during a backoff restarts it.
  void retry_or_abandon(Request& request);
  void send_registration(std::size_t provider_index);
  void send_registration_attempt();
  void on_registration_timeout();
  /// Whether `attempt` is the registration attempt still awaiting its
  /// answer: a Data, a NACK or a newer attempt retires the timeout and
  /// backoff events scheduled for an older one.
  bool registration_current(std::uint64_t attempt) const {
    return registration_pending_ && attempt == registration_attempt_;
  }
  /// Schedules the proactive renewal of `tag` (just received for
  /// `provider_index`) at T_e - lead +/- jitter on this node's clock.
  void schedule_renewal(std::size_t provider_index, core::TagPtr tag);
  /// Whether `tag` may still be attached to an Interest at local time
  /// `local_now` — live, or inside the client-side grace window.
  bool tag_usable(const core::TagPtr& tag, event::Time local_now) const;
  bool verify_content_signature(const ndn::Data& data) const;
  /// Backoff before resend number `attempt` (1-based): base *
  /// factor^(attempt-1), jittered by [1-j, 1+j], clamped at
  /// `retry_backoff_max`.
  event::Time retry_backoff(std::size_t attempt);

  ClientConfig config_;

  // Stream position.
  Target stream_;
  std::size_t next_chunk_ = 0;

  // Tag state, per provider.
  std::vector<core::TagPtr> tags_;
  std::optional<std::size_t> registration_pending_;  // provider index
  ndn::Name pending_registration_name_;
  std::uint64_t registration_attempt_ = 0;  // attempts sent so far
  std::size_t registration_retries_ = 0;
  /// Consecutive refused/abandoned registrations (reset when a tag
  /// arrives); drives the jittered exponential re-registration backoff.
  std::size_t registration_refusal_streak_ = 0;
  /// Window slots waiting for a tag.  Slot tokens are conserved: each
  /// token is either a request in flight, a scheduled fill event, or
  /// parked here — so the request rate stays window-limited.
  std::size_t parked_slots_ = 0;
};

}  // namespace tactic::workload
