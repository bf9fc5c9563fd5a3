// Tests for the discrete-event scheduler: ordering guarantees, FIFO
// tie-breaking, reentrancy, owners retiring their events by generation,
// and the Wakeup that keeps one event per owner of many deadlines.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "event/scheduler.hpp"

namespace tactic::event {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond + 500 * kMillisecond), 2.5);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
  EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
}

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(3 * kSecond, [&] { order.push_back(3); });
  sched.schedule(1 * kSecond, [&] { order.push_back(1); });
  sched.schedule(2 * kSecond, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 3 * kSecond);
}

TEST(Scheduler, FifoWithinSameInstant) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule(kSecond, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, NowAdvancesDuringRun) {
  Scheduler sched;
  Time seen = -1;
  sched.schedule(5 * kMillisecond, [&] { seen = sched.now(); });
  sched.run();
  EXPECT_EQ(seen, 5 * kMillisecond);
}

TEST(Scheduler, ZeroDelayRunsAfterCurrentInstantQueue) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(0, [&] {
    order.push_back(1);
    sched.schedule(0, [&] { order.push_back(3); });
    order.push_back(2);
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, HandlersCanScheduleMore) {
  Scheduler sched;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sched.schedule(kMillisecond, chain);
  };
  sched.schedule(0, chain);
  sched.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sched.now(), 99 * kMillisecond);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(1 * kSecond, [&] { order.push_back(1); });
  sched.schedule(2 * kSecond, [&] { order.push_back(2); });
  sched.schedule(3 * kSecond, [&] { order.push_back(3); });
  sched.run_until(2 * kSecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), 2 * kSecond);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWhenIdle) {
  Scheduler sched;
  sched.run_until(10 * kSecond);
  EXPECT_EQ(sched.now(), 10 * kSecond);
}

TEST(Scheduler, RunUntilIntoThePastThrows) {
  Scheduler sched;
  sched.run_until(10 * kSecond);
  EXPECT_THROW(sched.run_until(5 * kSecond), std::invalid_argument);
  EXPECT_EQ(sched.now(), 10 * kSecond);  // the clock did not rewind
  EXPECT_THROW(sched.schedule_at(5 * kSecond, [] {}), std::invalid_argument);
  sched.run_until(10 * kSecond);  // the present itself is fine
  EXPECT_EQ(sched.now(), 10 * kSecond);
}

TEST(Scheduler, NegativeDelayThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule(-1, [] {}), std::invalid_argument);
}

TEST(Scheduler, ScheduleAtPastThrows) {
  Scheduler sched;
  sched.schedule(kSecond, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(0, [] {}), std::invalid_argument);
}

TEST(Scheduler, Counters) {
  // Every scheduled event runs, so pending is the heap's size and
  // executed counts every pop.
  Scheduler sched;
  sched.schedule(kSecond, [] {});
  sched.schedule(kSecond, [] {});
  sched.schedule(2 * kSecond, [] {});
  EXPECT_EQ(sched.pending_count(), 3u);
  EXPECT_EQ(sched.executed_count(), 0u);
  sched.run_until(kSecond);
  EXPECT_EQ(sched.pending_count(), 1u);
  EXPECT_EQ(sched.executed_count(), 2u);
  sched.run();
  EXPECT_EQ(sched.executed_count(), 3u);
  EXPECT_EQ(sched.pending_count(), 0u);
}

// ---------------------------------------------------------------------------
// Wakeup: one event at or before an owner's earliest deadline.
// ---------------------------------------------------------------------------

TEST(Wakeup, StaysAtOrBeforeTheEarliestArm) {
  Scheduler sched;
  std::vector<Time> fired;
  Wakeup wakeup(sched, [&] { fired.push_back(sched.now()); });
  wakeup.arm(2 * kSecond);
  wakeup.arm(3 * kSecond);  // later: nothing moves
  EXPECT_EQ(sched.pending_count(), 1u);
  wakeup.arm(kSecond);  // earlier: a new event; the 2 s one goes stale
  EXPECT_EQ(sched.pending_count(), 2u);
  sched.run();
  // The owner re-arms from its own record; this one keeps none.  The
  // stale event still ran, as a no-op.
  EXPECT_EQ(fired, std::vector<Time>{kSecond});
  EXPECT_EQ(sched.executed_count(), 2u);
  EXPECT_EQ(sched.now(), 2 * kSecond);
}

TEST(Wakeup, DisarmDropsThePendingEvent) {
  Scheduler sched;
  int fired = 0;
  Wakeup wakeup(sched, [&] { ++fired; });
  wakeup.arm(kSecond);
  wakeup.disarm();
  wakeup.arm(2 * kSecond);  // a later arm after a disarm schedules afresh
  EXPECT_EQ(sched.pending_count(), 2u);
  sched.run_until(kSecond);
  EXPECT_EQ(fired, 0);  // the disarmed event ran as a no-op
  EXPECT_EQ(sched.executed_count(), 1u);
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 2 * kSecond);
}

TEST(Wakeup, StaleEventKeepsItsPlaceBehindLaterEvents) {
  // Moved earlier, fired, then re-armed at the stale event's instant: the
  // wakeup fires at its new (time, seq) place, after a marker scheduled
  // between the two arms.  The stale event is due at the same instant
  // and ahead of the marker, so only its generation tells it apart.
  Scheduler sched;
  std::vector<std::string> log;
  Wakeup wakeup(sched, [&] {
    log.push_back("wakeup@" + std::to_string(sched.now() / kMillisecond));
  });
  wakeup.arm(2 * kSecond);  // goes stale at the next arm
  wakeup.arm(kSecond);
  sched.run_until(kSecond);
  sched.schedule_at(2 * kSecond, [&] { log.push_back("marker"); });
  wakeup.arm(2 * kSecond);
  sched.run();
  EXPECT_EQ(log, (std::vector<std::string>{"wakeup@1000", "marker",
                                           "wakeup@2000"}));
}

// ---------------------------------------------------------------------------
// Regression pins for same-instant FIFO and for owners that retire their
// events by generation, under adversarial patterns.  These nail down
// behaviour the deterministic fuzzer's bit-reproducibility check depends
// on: a scheduler that reorders ties, or a retired event that does its
// work, would change packet traces between otherwise identical runs.
// "Cancel" in a test name below is an owner retiring its event; the
// scheduler still runs it.
// ---------------------------------------------------------------------------

TEST(Scheduler, SameInstantFifoSurvivesInterleavedSchedules) {
  // Ties broken by sequence number even when the same instant is reached
  // via different (delay, schedule_at) combinations and interleaved with
  // events at other times.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(2 * kSecond, [&] { order.push_back(20); });
  sched.schedule_at(kSecond, [&] { order.push_back(0); });
  sched.schedule(kSecond, [&] { order.push_back(1); });
  sched.schedule(3 * kSecond, [&] { order.push_back(30); });
  sched.schedule_at(kSecond, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 20, 30}));
}

TEST(Scheduler, CancelSameInstantSiblingDuringDispatch) {
  // A handler retires a later event scheduled for the SAME instant by
  // bumping its owner's generation: the sibling still runs in its place,
  // does nothing, and the events after it keep their order.
  Scheduler sched;
  std::vector<int> order;
  std::uint64_t generation = 0;
  sched.schedule(kSecond, [&] {
    order.push_back(1);
    ++generation;
  });
  sched.schedule(kSecond, [&, mine = generation] {
    if (mine == generation) order.push_back(2);
  });
  sched.schedule(kSecond, [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sched.executed_count(), 3u);
}

TEST(Scheduler, ZeroDelayReschedulesKeepFifoAcrossHandlers) {
  // Two handlers at the same instant each reschedule themselves with zero
  // delay: the followers must run in the same relative order as their
  // parents (A, B, A', B'), not interleaved arbitrarily.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(kSecond, [&] {
    order.push_back(1);
    sched.schedule(0, [&] { order.push_back(3); });
  });
  sched.schedule(kSecond, [&] {
    order.push_back(2);
    sched.schedule(0, [&] { order.push_back(4); });
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sched.now(), kSecond);
}

TEST(Scheduler, CancelAndReplaceKeepsSurvivorOrder) {
  // Timer-refresh pattern: retire a pending event by generation and
  // schedule a replacement at the same instant.  The replacement is a
  // NEW event and must run after every survivor scheduled before it.
  Scheduler sched;
  std::vector<int> order;
  std::uint64_t generation = 0;
  sched.schedule(kSecond, [&, mine = generation] {
    if (mine == generation) order.push_back(1);
  });
  sched.schedule(kSecond, [&] { order.push_back(2); });
  sched.schedule(kSecond, [&, mine = ++generation] {
    if (mine == generation) order.push_back(3);
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(Scheduler, AdversarialCancelStormCountsStayConsistent) {
  // Dense same-instant bursts with every other event retired — some
  // before run(), one from inside a handler — must never double-execute
  // or lose events: every event runs once, the retired ones as no-ops.
  Scheduler sched;
  std::vector<bool> retired(100, false);
  int worked = 0;
  for (std::size_t i = 0; i < retired.size(); ++i) {
    sched.schedule(kSecond, [&, i] {
      if (!retired[i]) ++worked;
    });
  }
  for (std::size_t i = 0; i < retired.size(); i += 2) retired[i] = true;
  // A same-instant saboteur scheduled last retires the tail survivor,
  // which has already run.
  sched.schedule(kSecond, [&] { retired[99] = true; });
  EXPECT_EQ(sched.pending_count(), 101u);
  sched.run();
  EXPECT_EQ(worked, 50);
  EXPECT_EQ(sched.executed_count(), 101u);
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler sched;
  Time last = -1;
  int executed = 0;
  // Pseudo-random delays; verify global non-decreasing execution times.
  std::uint64_t state = 12345;
  for (int i = 0; i < 10000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const Time when = static_cast<Time>(state % (1000 * kMillisecond));
    sched.schedule_at(when, [&, when] {
      EXPECT_GE(when, last);
      last = when;
      ++executed;
    });
  }
  sched.run();
  EXPECT_EQ(executed, 10000);
}

}  // namespace
}  // namespace tactic::event
