#pragma once
// The paper's "Zipf-window client" (Section 8.A).
//
// Each client keeps a fixed-size window of outstanding Interests (5),
// selects content objects by Zipf(alpha = 0.7) popularity across the
// global catalog, registers with a provider whenever it lacks a valid tag
// for it, and then streams the object's chunks through its window.
// Requests expire after the Interest lifetime (1 s), freeing the window
// slot.  A think-time gap paces each slot (calibrated in EXPERIMENTS.md to
// the paper's observed per-client request rates).

#include <array>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ndn/forwarder.hpp"
#include "tactic/tag.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "workload/provider_app.hpp"

namespace tactic::workload {

struct ClientConfig {
  std::size_t window = 5;
  event::Time interest_lifetime = event::kSecond;
  /// Mean of the exponential per-slot think time between a slot freeing
  /// and its next request.
  event::Time think_time_mean = 200 * event::kMillisecond;
  double zipf_alpha = 0.7;
  /// Uniform random start delay (desynchronizes clients).
  event::Time start_jitter = event::kSecond;
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
  /// Closed-loop cap on *distinct* chunk requests (first attempts;
  /// retransmissions are free).  0 = unlimited (the default open loop).
  /// The differential batching harness uses this so batched and
  /// unbatched runs issue the exact same request population regardless
  /// of timing shifts near the scenario end.
  std::size_t max_chunks = 0;
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

/// Per-user traffic counters (Table IV's rows; Fig. 6's tag rates).  The
/// fields harvested into sim::TrafficTotals are rows of
/// workload/user_stats.def.
struct UserCounters {
#define USER_STAT(counter, total, print) std::uint64_t counter = 0;
#include "workload/user_stats.def"
  std::uint64_t registrations_refused = 0;
  /// Content that failed client-side signature verification (fake or
  /// unsigned content under a protected prefix with verification on).
  std::uint64_t content_verification_failures = 0;
  /// Per-reason breakdown of `nacks_received` (chunk verdicts only;
  /// registration NACKs are excluded just as they are from
  /// `nacks_received`).  Indexed by ndn::NackReason.  The batching
  /// equivalence harness compares these as a verdict multiset.
  std::array<std::uint64_t, ndn::kNackReasonCount> nacks_by_reason{};
};

class ClientApp {
 public:
  /// `providers` must outlive the app.  The client's node FIB must
  /// already default-route toward its access point.
  ClientApp(ndn::Forwarder& node, std::vector<ProviderApp*> providers,
            ClientConfig config, util::Rng rng);

  /// Schedules the first requests (after the start jitter).
  void start();
  /// Stops issuing new requests (outstanding ones simply expire).
  void stop() { running_ = false; }

  const UserCounters& counters() const { return counters_; }
  const std::string& label() const { return node_.info().label; }

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
  struct Outstanding {
    event::Time sent_at = 0;        // most recent attempt
    event::Time first_sent_at = 0;  // first attempt (recovery latency)
    std::size_t retries = 0;        // resends already spent
    std::size_t provider = 0;       // tag to attach on a resend
    /// Protected chunk: a resend is pointless without a live tag (the
    /// edge silently drops expired ones), so expiry ends the retries.
    bool needs_tag = false;
    /// Pending timer: the Interest timeout, or — between a timeout and
    /// the resend — the scheduled retransmission.  Either way the slot
    /// token stays held by this entry.
    event::EventId timeout;
  };

  void schedule_slot_fill();
  void release_parked_slots(std::size_t count, event::Time delay);
  void fill_one_slot();
  std::size_t provider_of_rank(std::size_t rank) const;
  void advance_stream();
  void send_chunk_interest();
  void resend_chunk(const ndn::Name& name);
  void send_registration(std::size_t provider_index);
  void send_registration_attempt();
  void on_registration_timeout();
  /// Schedules the proactive renewal of `tag` (just received for
  /// `provider_index`) at T_e - lead +/- jitter on this node's clock.
  void schedule_renewal(std::size_t provider_index, core::TagPtr tag);
  /// Whether `tag` may still be attached to an Interest at local time
  /// `local_now` — live, or inside the client-side grace window.
  bool tag_usable(const core::TagPtr& tag, event::Time local_now) const;
  bool verify_content_signature(const ndn::Data& data) const;
  void on_data(const ndn::Data& data);
  void on_nack(const ndn::Nack& nack);
  void on_timeout(const ndn::Name& name);
  /// A router shed our outstanding Interest for `name` (explicit
  /// kRouterOverloaded): back off now instead of waiting out the chunk
  /// timeout.  The caller must have cancelled the pending timer.
  void on_overload_nack(const ndn::Name& name);
  event::Time think_sample();
  /// Backoff before resend number `attempt` (1-based): base *
  /// factor^(attempt-1), jittered by [1-j, 1+j], clamped at
  /// `retry_backoff_max`.
  event::Time retry_backoff(std::size_t attempt);

  ndn::Forwarder& node_;
  std::vector<ProviderApp*> providers_;
  ClientConfig config_;
  util::Rng rng_;
  util::ZipfDist popularity_;  // over provider x object ranks
  ndn::FaceId face_ = ndn::kInvalidFace;
  bool running_ = false;

  // Stream position.
  std::size_t current_provider_ = 0;
  std::size_t current_object_ = 0;
  std::size_t next_chunk_ = 0;

  // Tag state, per provider.
  std::vector<core::TagPtr> tags_;
  std::optional<std::size_t> registration_pending_;  // provider index
  ndn::Name pending_registration_name_;
  event::EventId registration_timeout_;  // cancelled on response/NACK
  std::size_t registration_retries_ = 0;
  /// Consecutive refused/abandoned registrations (reset when a tag
  /// arrives); drives the jittered exponential re-registration backoff.
  std::size_t registration_refusal_streak_ = 0;
  /// Window slots waiting for a tag.  Slot tokens are conserved: each
  /// token is either an outstanding Interest, a scheduled fill event, or
  /// parked here — so the request rate stays window-limited.
  std::size_t parked_slots_ = 0;

  std::unordered_map<ndn::Name, Outstanding> outstanding_;
  UserCounters counters_;
  /// Distinct chunks started (first attempts), against `max_chunks`.
  std::size_t chunks_started_ = 0;
};

}  // namespace tactic::workload
