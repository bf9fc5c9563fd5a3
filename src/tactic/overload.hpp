#pragma once
// Overload-resilience primitives for TACTIC routers.
//
// TACTIC moves the access-control work onto routers, which makes routers
// the DoS target: an invalid-tag flood forces a signature verification
// per Interest (the brute-force pressure studied by Ghali et al. for
// stateless ICN forwarding).  This header provides the building blocks a
// router policy composes into graceful degradation:
//
//  - ValidationQueue: a deterministic single-server queue through which
//    all ComputeModel costs are charged.  Backlog and waiting time become
//    real simulation signals instead of the infinite crypto throughput
//    the instantaneous model implied.
//  - NegativeTagCache: TTL- and size-bounded memory of tags that already
//    failed signature verification, so a repeated invalid tag costs one
//    verification per TTL window, not one per Interest.
//  - TokenBucket: per-face policing of unvouched (BF-miss) Interests at
//    the wireless edge.
//
// Everything here is deterministic: no wall clock, no internal RNG; state
// advances only from the simulated timestamps callers pass in.

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "event/time.hpp"
#include "util/bytes.hpp"

namespace tactic::core {

/// Knobs for the router overload-resilience layer.  With `enabled` false
/// every mechanism is bypassed and the router behaves (bit-identically)
/// like the instantaneous-charging model.
struct OverloadConfig {
  bool enabled = false;
  /// Hard admission limit: when this many validation jobs are pending,
  /// ALL tagged traffic needing validation is shed (kRouterOverloaded).
  std::size_t queue_capacity = 64;
  /// High watermark: past this backlog, suspect traffic (unvouched
  /// F=0 / BF-miss requests) is shed while BF-vouched traffic passes.
  std::size_t shed_watermark = 32;
  /// Negative-tag verdict cache bounds.
  std::size_t neg_cache_capacity = 1024;
  event::Time neg_cache_ttl = 5 * event::kSecond;
  /// Per-face token-bucket rate for unvouched Interests at edge routers
  /// (Interests per second); 0 disables the policer.
  double policer_rate = 0.0;
  double policer_burst = 20.0;
  /// Staged Bloom-filter reset: on saturation, rotate to a fresh filter
  /// and keep the old one readable for `staged_reset_grace` instead of
  /// discarding all vouching state at once (hysteresis against the
  /// self-inflicted re-validation storm an instant wipe causes).
  bool staged_bf_reset = true;
  event::Time staged_reset_grace = 2 * event::kSecond;
};

/// Deterministic single-server FIFO queue of validation work.  Jobs are
/// admitted with their sampled service cost; the queue answers "when does
/// this job complete" and "how many jobs are pending at `now`".  It never
/// rejects work itself — admission control (watermarks, capacity) is the
/// policy's decision, taken by inspecting depth() *before* admitting.
/// The completion FIFO allocates on the first admit, and copies stay
/// independent (ValidationLanes keeps its queues in a vector).
class ValidationQueue {
 public:
  /// Admits one job with service time `service` arriving at `now`.
  /// Returns the delay from `now` until the job completes (waiting time
  /// behind earlier jobs plus its own service time).
  event::Time admit(event::Time now, event::Time service);

  /// Jobs admitted but not yet completed at `now` (prunes completions).
  std::size_t depth(event::Time now);

  /// Largest depth observed immediately after any admit().
  std::size_t peak_depth() const { return peak_depth_; }

  /// Total time jobs spent waiting behind earlier work (excludes their
  /// own service time), as simulated time.
  event::Time total_wait() const { return total_wait_; }

  /// Crash recovery: pending work dies with the router.
  void reset();

  /// True when the server is occupied at `now` (a job admitted at `now`
  /// would wait behind earlier work).
  bool busy_at(event::Time now) const { return busy_until_ > now; }

 private:
  /// Drops completions at or before `now` from the FIFO's head.
  void prune(event::Time now);

  /// Ascending completion times; the pending ones start at head_.
  std::vector<event::Time> completions_;
  std::size_t head_ = 0;
  event::Time busy_until_ = 0;
  std::size_t peak_depth_ = 0;
  event::Time total_wait_ = 0;
};

/// N independent single-server validation lanes modeling a multi-core
/// router (ROADMAP, "multi-lane routers").  Each job names its *home*
/// lane — a stable byte-hash of the tag key, computed by the caller;
/// interned-name IDs are deliberately not used because the NameTable is
/// process-global, so their values depend on what the process interned
/// earlier (for example an earlier Scenario in the same test binary).
/// Deterministic work stealing at instant boundaries: when the home lane
/// is busy at the arrival instant and another lane is idle, the
/// lowest-indexed idle lane takes the job (and `steals` counts it);
/// otherwise the job queues FIFO behind its home lane.
///
/// With one lane every admit degenerates to `ValidationQueue::admit` on
/// lane 0 — bit-identical to the pre-lane router.
class ValidationLanes {
 public:
  explicit ValidationLanes(std::size_t lanes = 1) { configure(lanes); }

  /// Resizes to `lanes` (>= 1; 0 is clamped to 1) and clears all state.
  void configure(std::size_t lanes);

  std::size_t lanes() const { return lanes_.size(); }

  /// Admits one job with service time `service` arriving at `now` with
  /// home lane `home` (must be < lanes()).  Returns the delay until
  /// completion, exactly as ValidationQueue::admit.
  event::Time admit(std::size_t home, event::Time now, event::Time service);

  /// Live backlog summed over all lanes — the admission-control signal
  /// (watermarks and capacity bound the router, not a single core).
  std::size_t depth(event::Time now);

  /// Live backlog of one lane.
  std::size_t lane_depth(std::size_t lane, event::Time now) {
    return lanes_[lane].depth(now);
  }

  /// Aggregate waiting time across lanes (simulated).
  event::Time total_wait() const;

  /// Largest per-lane depth observed after any admit.
  std::size_t peak_depth() const;

  /// Jobs routed away from a busy home lane to an idle one.
  std::uint64_t steals() const { return steals_; }

  /// Crash recovery: pending work in every lane dies with the router.
  void reset();

 private:
  std::vector<ValidationQueue> lanes_;
  std::uint64_t steals_ = 0;
};

/// TTL- and size-bounded set of tag keys (Tag::bloom_key() bytes) that
/// failed verification.
/// Insertion order doubles as the eviction order (oldest verdict leaves
/// first when full); a re-inserted key refreshes its TTL and moves to the
/// back.  Deterministic: expiry is judged against caller-supplied time.
class NegativeTagCache {
 public:
  NegativeTagCache(std::size_t capacity, event::Time ttl)
      : capacity_(capacity), ttl_(ttl) {}

  /// True when `key` holds an unexpired negative verdict at `now`.
  /// An expired entry found here is erased as a side effect.
  bool contains(const util::Bytes& key, event::Time now);

  /// Records (or refreshes) a negative verdict for `key` at `now`.
  void insert(const util::Bytes& key, event::Time now);

  void clear();
  std::size_t size() const { return index_.size(); }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    util::Bytes key;
    event::Time expires = 0;
  };

  std::size_t capacity_;
  event::Time ttl_;
  std::list<Entry> order_;  // front = oldest verdict
  std::unordered_map<util::Bytes, std::list<Entry>::iterator, util::BytesHash>
      index_;
  std::uint64_t evictions_ = 0;
};

/// Classic token bucket, advanced lazily from caller-supplied timestamps.
class TokenBucket {
 public:
  TokenBucket(double rate_per_second, double burst)
      : rate_(rate_per_second), burst_(burst), tokens_(burst) {}

  /// Takes one token at `now`; false when the bucket is empty.
  bool try_take(event::Time now);

 private:
  double rate_;
  double burst_;
  double tokens_;
  event::Time last_ = 0;
};

}  // namespace tactic::core
