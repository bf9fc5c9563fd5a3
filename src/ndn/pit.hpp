#pragma once
// Pending Interest Table.
//
// Besides classic NDN aggregation (one entry per in-flight name, multiple
// downstream faces), TACTIC's Protocol 4 requires each aggregated request
// to record the 3-tuple <tag T, flag F, incoming face>, so intermediate
// routers can validate every aggregated tag when the content returns.
//
// Storage is a slab arena: entries live in a deque of reusable slots
// (stable addresses — callers hold PitEntry references across inserts),
// indexed by an interned-name hash map, with recency kept as an intrusive
// doubly-linked list of slot indices.  Freed slots keep their in_records
// vector capacity, so steady-state operation allocates nothing per
// Interest.  The lazy expiry min-heap is the only record of deadlines:
// the owning forwarder keeps one scheduler wakeup at or before
// min_expiry() and erases what is due with erase_expired(), and the
// invariant sampler reads the earliest live deadline in O(1) amortized
// instead of scanning the whole table.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "event/time.hpp"
#include "ndn/fib.hpp"
#include "ndn/name.hpp"
#include "ndn/packet.hpp"
#include "util/hash_index.hpp"

namespace tactic::ndn {

/// One aggregated downstream request (TACTIC's <T_u, F, InFace_u>).
struct PitInRecord {
  FaceId face = kInvalidFace;
  std::uint64_t nonce = 0;
  std::shared_ptr<const core::Tag> tag;
  std::size_t tag_wire_size = 0;
  double flag_f = 0.0;
  std::uint64_t access_path = 0;
  event::Time expiry = 0;  // absolute time this record times out
};

struct PitEntry {
  Name name;
  std::vector<PitInRecord> in_records;
  /// True once the Interest has been sent upstream (subsequent arrivals
  /// are aggregated, matching the paper's Protocol 4 lines 1-5).
  bool forwarded = false;
  /// Absolute time at which the whole entry expires (max over records).
  /// Keep in sync via Pit::set_expiry so the expiry heap sees updates.
  event::Time expiry_time = 0;
  /// Arena slot this entry occupies (maintained by Pit itself).
  std::uint32_t slot = 0;
};

class Pit {
 public:
  /// Finds the entry for `name`; nullptr if absent.  A hit counts as a
  /// use for LRU purposes.
  PitEntry* find(const Name& name);

  /// Creates (or returns the existing) entry; either way the entry
  /// becomes most-recently used.  References remain valid across later
  /// inserts (slab storage).
  PitEntry& get_or_create(const Name& name);

  void erase(const Name& name);

  /// Drops every entry.  The PIT does not know the scheduler: an owner
  /// whose wakeup waits on these deadlines cancels it itself.
  void clear();

  std::size_t size() const { return index_.size(); }

  /// The least-recently-used entry (the eviction victim when the owner
  /// enforces a capacity); nullptr when empty.  Does not touch recency.
  PitEntry* lru_victim();

  /// Visits every live entry (slot order).  Used for invariant-failure
  /// reporting — never on a per-packet path, and nothing
  /// fingerprint-visible may depend on the order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.live) fn(slot.entry);
    }
  }

  /// Records the entry's expiry deadline (sets entry.expiry_time and
  /// pushes a heap record).  Callers must route every expiry_time update
  /// through here or min_expiry() goes stale.
  void set_expiry(PitEntry& entry, event::Time expiry);

  /// Earliest expiry deadline over all live entries; nullopt when none
  /// has a deadline.  Lazily discards records for erased or re-scheduled
  /// entries, so the amortized cost is O(1) per set_expiry call — the
  /// owner's expiry wakeup and the invariant sampler poll this instead of
  /// scanning the table.
  std::optional<event::Time> min_expiry();

  /// Erases every entry whose deadline is at or before `now`, earliest
  /// first, and returns how many it erased.
  std::size_t erase_expired(event::Time now);

  /// Whether a downstream face already requested this name with this nonce
  /// (duplicate/looping Interest detection).
  static bool has_nonce(const PitEntry& entry, std::uint64_t nonce);

  /// Hot-path work counters for sim::RouterOps aggregation and the
  /// regression tests pinning table costs.  Never fingerprinted.
  struct Counters {
    std::uint64_t lookups = 0;       // find() + get_or_create() probes
    std::uint64_t inserts = 0;       // entries created
    std::uint64_t expiry_polls = 0;  // heap records examined by min_expiry
  };
  const Counters& counters() const { return counters_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    PitEntry entry;
    /// Bumped on free; stale expiry-heap records fail the gen check.
    std::uint32_t gen = 0;
    bool live = false;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
  };

  struct ExpiryRec {
    event::Time expiry = 0;
    std::uint32_t slot = kNil;
    std::uint32_t gen = 0;
  };

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t s);
  /// Unindexes and frees live slot `s`.
  void erase_slot(std::uint32_t s);
  void lru_unlink(std::uint32_t s);
  void lru_push_back(std::uint32_t s);
  /// True when the heap record still describes a live, current deadline.
  bool rec_current(const ExpiryRec& rec) const;

  /// True when slot `s` is live and holds `name` (HashIndex probe).
  bool slot_holds(std::uint32_t s, const Name& name) const {
    return slots_[s].entry.name == name;
  }

  std::deque<Slot> slots_;  // stable addresses; freed slots keep capacity
  std::vector<std::uint32_t> free_slots_;
  /// Keys (names) live in the slots; the index maps id_hash -> slot and
  /// resolves collisions through slot_holds().  No per-entry allocation.
  util::HashIndex index_;
  std::uint32_t lru_head_ = kNil;  // least recently used
  std::uint32_t lru_tail_ = kNil;  // most recently used
  /// Min-heap by expiry with lazy deletion (gen + expiry_time checks).
  std::vector<ExpiryRec> expiry_heap_;
  mutable Counters counters_;
};

}  // namespace tactic::ndn
