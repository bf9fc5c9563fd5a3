#pragma once
// Discrete-event scheduler — the ns-3 substitute at the heart of the
// simulator.
//
// Properties the rest of the system relies on:
//  - events at the same timestamp run in scheduling (FIFO) order, so a
//    node that schedules A then B observes A before B;
//  - every scheduled event runs: there is no cancellation.  An owner
//    that may retire an event before it is due (a Wakeup moved earlier,
//    a registration answered, a batch flushed early, a crashed router)
//    captures a generation number in the closure and compares it with
//    its current one when the event runs.  So an owner must outlive
//    every event it scheduled, retired ones included;
//  - the scheduler is single-threaded and reentrant: handlers may schedule
//    further events freely.
//
// Storage is allocation-free at steady state: handlers live in a
// util::Slab of reusable small-buffer callables (no std::function
// nodes), and the heap orders plain {when, seq, slot} tuples.

#include <cstdint>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "event/time.hpp"
#include "util/inplace_function.hpp"
#include "util/slab.hpp"

namespace tactic::event {

class Scheduler {
 public:
  /// Sized for the forwarder's transmit closures (packet handle + face +
  /// epoch); larger captures spill to the heap transparently.
  using Handler = util::InplaceFunction<void(), 104>;

  /// Current simulation time.  Monotonically non-decreasing.
  Time now() const { return now_; }

  /// Schedules `handler` to run at now() + delay (delay >= 0; a zero delay
  /// runs after all handlers already queued for the current instant).
  void schedule(Time delay, Handler handler);

  /// Schedules at an absolute time (>= now()).
  void schedule_at(Time when, Handler handler);

  /// Runs events until the queue empties.  Returns the final time.
  Time run();

  /// Runs events with timestamp <= `until`, then sets now() to `until`
  /// (>= now()).
  Time run_until(Time until);

  /// Number of events executed so far.
  std::uint64_t executed_count() const { return executed_; }
  /// Number of events scheduled but not yet run: the heap's size.
  std::size_t pending_count() const { return queue_.size(); }

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    // Min-heap by (when, seq): earliest time first, FIFO within a time.
    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  void dispatch(const Entry& entry);

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  util::Slab<Handler> handlers_;  // stable addresses; slots keep SBO storage
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// One pending event at or before the earliest of an owner's deadlines,
/// which the owner keeps in its own record (the PIT's lazy expiry heap, a
/// user app's requests in flight).  A deadline answered early just leaves
/// that record; when the event runs, `fire` serves what is due and arms
/// the next deadline.  Moving the event earlier or disarming it retires
/// the pending one by generation: it still runs at its own (time, seq)
/// place, finds a newer generation and returns.
class Wakeup {
 public:
  Wakeup(Scheduler& scheduler, Scheduler::Handler fire)
      : scheduler_(scheduler), fire_(std::move(fire)) {}
  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  /// Moves the event to `when` unless it is already at or before it.
  void arm(Time when);
  void disarm();  // retires the pending event

 private:
  Scheduler& scheduler_;
  Scheduler::Handler fire_;
  /// The pending event's time; empty when none is pending.
  std::optional<Time> at_;
  /// Bumped by every arm that schedules and every disarm; only the event
  /// scheduled under the current value fires.
  std::uint64_t generation_ = 0;
};

}  // namespace tactic::event
