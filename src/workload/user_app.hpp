#pragma once
// The request loop every user runs (the paper's Section 8.A workload): a
// window of Interests in flight (5), each freed slot refilled after an
// exponential think time, targets drawn from one Zipf(alpha = 0.7) law
// over every provider's catalog (one table per law, shared by every user
// that draws from it), and a 1 s Interest lifetime.  Clients
// (client_app.hpp) add registration and retransmission; attackers
// (attacker_app.hpp) add an invalid-tag strategy.
//
// Requests in flight live in a vector of reusable slots searched
// linearly (no default keeps more than 80 in flight).  Each carries its
// own deadline — the Interest timeout or the end of a retransmission
// backoff — and the app keeps one event::Wakeup at or before the
// earliest, so an answered request cancels nothing.  Due requests reach
// on_deadline() in (deadline, arming order), the order one timer per
// request would fire in.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "event/scheduler.hpp"
#include "ndn/forwarder.hpp"
#include "tactic/tag.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "workload/provider_app.hpp"

namespace tactic::workload {

/// The request-loop settings clients and attackers share.
struct UserConfig {
  /// Interests in flight at once.
  std::size_t window = 5;
  event::Time interest_lifetime = event::kSecond;
  /// Mean of the exponential per-slot think time between a slot freeing
  /// and its next request.
  event::Time think_time_mean = 200 * event::kMillisecond;
  /// Popularity skew; sim::Scenario builds the law (popularity_law).
  double zipf_alpha = 0.7;
  /// Uniform random start delay (desynchronizes users).
  event::Time start_jitter = event::kSecond;
  /// Closed-loop cap on *distinct* chunk requests (first attempts;
  /// retransmissions are free).  0 = unlimited (the default open loop).
  /// The differential batching harness uses this so batched and
  /// unbatched runs issue the exact same request population regardless
  /// of timing shifts near the scenario end.
  std::size_t max_chunks = 0;
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

/// Zipf(`alpha`) over every rank of `providers`' catalogs: the law
/// UserApp::draw_target() maps onto (provider, object) targets.
util::ZipfDist popularity_law(const std::vector<ProviderApp*>& providers,
                              double alpha);

class UserApp {
 public:
  virtual ~UserApp() = default;
  UserApp(const UserApp&) = delete;
  UserApp& operator=(const UserApp&) = delete;

  /// Schedules the first requests (after the start jitter).
  void start();
  /// Stops issuing new requests (outstanding ones simply expire).
  void stop() { running_ = false; }

  const UserCounters& counters() const { return counters_; }
  const std::string& label() const { return node_.info().label; }

 protected:
  /// One request in flight; a free slot keeps its name's capacity.
  struct Request {
    ndn::Name name;
    bool live = false;
    event::Time deadline = 0;  // the end of a backoff when `backoff`
    std::uint64_t armed = 0;   // arming order; 0 = no pending deadline
    bool backoff = false;
    event::Time sent_at = 0;        // most recent attempt
    event::Time first_sent_at = 0;  // first attempt (recovery latency)
    // Client retransmission state; one-shot requests leave it alone.
    std::size_t retries = 0;   // resends already spent
    std::size_t provider = 0;  // tag to attach on a resend
    /// Protected chunk: a resend is pointless without a live tag (the
    /// edge silently drops expired ones), so expiry ends the retries.
    bool needs_tag = false;
  };

  struct Target {
    std::size_t provider = 0;
    std::size_t object = 0;
  };

  /// `providers` must outlive the app; the node's FIB must already
  /// default-route toward its access point.  `popularity` is
  /// popularity_law(providers, ...); copies share its table.
  UserApp(ndn::Forwarder& node, std::vector<ProviderApp*> providers,
          const UserConfig& loop, util::ZipfDist popularity, util::Rng rng);

  /// Issues the next request of an open window slot (running, under the
  /// cap, window not full): a request in flight, a scheduled fill, or a
  /// parked slot.
  virtual void request_next() = 0;
  /// `request`'s deadline passed and is spent (re-arm for another).
  /// Default: the Interest timed out and the request ends.
  virtual void on_deadline(Request& request);
  /// Default: the matching request ends, counted as content or a NACK.
  virtual void on_data(const ndn::Data& data);
  virtual void on_nack(const ndn::Nack& nack);

  /// Ranks interleave across providers so every provider owns content at
  /// all popularity strata: rank r -> provider r % P, object r / P.
  Target draw_target();
  event::Time think_sample();
  void fill_slot();
  /// Refills one slot after a think time (while running).
  void schedule_slot_fill();
  Request* find(const ndn::Name& name);  // nullptr when none in flight
  /// A first attempt in a free slot, counted against `max_chunks`.  The
  /// reference, like find()'s pointer, lasts until the next track().
  Request& track(const ndn::Name& name);
  /// A fresh nonce and the Interest lifetime.
  std::shared_ptr<ndn::Interest> make_interest(const ndn::Name& name);
  /// Sends `request` carrying `tag`, its timeout armed before injection.
  void send_attempt(Request& request, core::TagPtr tag);
  /// It runs after every deadline armed earlier for the same instant.
  void arm(Request& request, event::Time deadline);
  /// Frees the slot and schedules its next fill.
  void end(Request& request);
  void count_nack(ndn::NackReason reason);

  ndn::Forwarder& node_;
  std::vector<ProviderApp*> providers_;
  UserConfig loop_;
  util::Rng rng_;
  ndn::FaceId face_ = ndn::kInvalidFace;
  bool running_ = false;
  UserCounters counters_;

 private:
  /// Serves every request due now that was armed before the wakeup ran,
  /// then arms it at the earliest deadline left.
  void serve_deadlines();

  util::ZipfDist popularity_;  // over provider x object ranks
  std::vector<Request> requests_;
  std::size_t in_flight_ = 0;
  /// Distinct chunks started (first attempts), against `max_chunks`.
  std::size_t chunks_started_ = 0;
  std::uint64_t next_arming_ = 1;
  event::Wakeup wakeup_;
};

}  // namespace tactic::workload
