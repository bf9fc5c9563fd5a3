#pragma once
// Discrete-event scheduler — the ns-3 substitute at the heart of the
// simulator.
//
// Properties the rest of the system relies on:
//  - events at the same timestamp run in scheduling (FIFO) order, so a
//    node that schedules A then B observes A before B;
//  - events may be cancelled via the handle returned by `schedule`;
//  - the scheduler is single-threaded and reentrant: handlers may schedule
//    further events freely.
//
// Storage is allocation-free at steady state: handlers live in a
// util::Slab of reusable records (small-buffer callables, no
// std::function nodes) and
// the heap orders plain {when, seq, record} tuples.  Cancellation is
// lazy — a cancelled record is freed immediately, and the stale heap
// entry is recognised at pop time by its sequence number (sequence
// numbers are never reused, so a recycled record slot can never be
// mistaken for the cancelled event that once occupied it).

#include <cstdint>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "event/time.hpp"
#include "util/inplace_function.hpp"
#include "util/slab.hpp"

namespace tactic::event {

/// Handle identifying a scheduled event; used for cancellation.
class EventId {
 public:
  EventId() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class Scheduler;
  EventId(std::uint64_t seq, std::uint32_t rec) : seq_(seq), rec_(rec) {}
  std::uint64_t seq_ = 0;
  std::uint32_t rec_ = 0;
};

class Scheduler {
 public:
  /// Sized for the forwarder's transmit closures (packet handle + face +
  /// epoch); larger captures spill to the heap transparently.
  using Handler = util::InplaceFunction<void(), 104>;

  /// Current simulation time.  Monotonically non-decreasing.
  Time now() const { return now_; }

  /// Schedules `handler` to run at now() + delay (delay >= 0; a zero delay
  /// runs after all handlers already queued for the current instant).
  EventId schedule(Time delay, Handler handler);

  /// Schedules at an absolute time (>= now()).
  EventId schedule_at(Time when, Handler handler);

  /// Cancels a pending event.  Returns false when the event already ran,
  /// was cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// Runs events until the queue empties.  Returns the final time.
  Time run();

  /// Runs events with timestamp <= `until`, then sets now() to `until`
  /// (>= now()).
  Time run_until(Time until);

  /// Number of events executed so far.
  std::uint64_t executed_count() const { return executed_; }
  /// Number of successful cancel() calls so far.
  std::uint64_t cancelled_count() const { return cancelled_; }
  /// Number of events currently pending (excluding cancelled ones).
  std::size_t pending_count() const { return pending_; }

 private:
  /// Handler slab record.  `seq` doubles as the liveness check: 0 means
  /// free/cancelled, otherwise it names the event currently occupying the
  /// slot (heap entries carry the seq they were queued under).
  struct Rec {
    Handler handler;
    std::uint64_t seq = 0;
  };

  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t rec;
    // Min-heap by (when, seq): earliest time first, FIFO within a time.
    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  void dispatch(const Entry& entry);

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  util::Slab<Rec> recs_;  // stable addresses; freed slots keep SBO storage
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t pending_ = 0;
};

/// One pending event at or before the earliest of an owner's deadlines,
/// which the owner keeps in its own record (the PIT's lazy expiry heap, a
/// user app's requests in flight).  A deadline answered early just leaves
/// that record and cancels nothing; when the event runs, `fire` serves
/// what is due and arms the next deadline.
class Wakeup {
 public:
  Wakeup(Scheduler& scheduler, Scheduler::Handler fire)
      : scheduler_(scheduler), fire_(std::move(fire)) {}
  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  /// Moves the event to `when` unless it is already at or before it.
  void arm(Time when);
  void disarm();  // drops the pending event

 private:
  Scheduler& scheduler_;
  Scheduler::Handler fire_;
  EventId event_;
  /// Empty when no event is pending, which the id cannot tell: it stays
  /// valid after its event ran.
  std::optional<Time> at_;
};

}  // namespace tactic::event
