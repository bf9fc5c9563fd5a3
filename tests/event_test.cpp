// Tests for the discrete-event scheduler: ordering guarantees, FIFO
// tie-breaking, cancellation, and reentrancy.

#include <gtest/gtest.h>

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

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  const EventId id = sched.schedule(kSecond, [&] { ran = true; });
  EXPECT_TRUE(sched.cancel(id));
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelTwiceFails) {
  Scheduler sched;
  const EventId id = sched.schedule(kSecond, [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelAfterExecutionFails) {
  Scheduler sched;
  const EventId id = sched.schedule(kMillisecond, [] {});
  sched.run();
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelInvalidIdFails) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(EventId{}));
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
  Scheduler sched;
  sched.schedule(kSecond, [] {});
  const EventId cancelled = sched.schedule(kSecond, [] {});
  sched.schedule(2 * kSecond, [] {});
  EXPECT_EQ(sched.pending_count(), 3u);
  sched.cancel(cancelled);
  EXPECT_EQ(sched.pending_count(), 2u);
  sched.run();
  EXPECT_EQ(sched.executed_count(), 2u);
  EXPECT_EQ(sched.pending_count(), 0u);
}

// ---------------------------------------------------------------------------
// Regression pins for same-instant FIFO and cancellation semantics under
// adversarial patterns.  These nail down behaviour the deterministic
// fuzzer's bit-reproducibility check depends on: a scheduler that
// reorders ties or resurrects cancelled events would change packet
// traces between otherwise identical runs.
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
  // A handler cancels a later event scheduled for the SAME instant: the
  // cancel must succeed and the sibling must be skipped, even though it
  // already sits in the dispatch queue for the current time.
  Scheduler sched;
  std::vector<int> order;
  EventId sibling;
  sched.schedule(kSecond, [&] {
    order.push_back(1);
    EXPECT_TRUE(sched.cancel(sibling));
  });
  sibling = sched.schedule(kSecond, [&] { order.push_back(2); });
  sched.schedule(kSecond, [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sched.executed_count(), 2u);
}

TEST(Scheduler, CancelSelfDuringExecutionFails) {
  // By the time a handler runs its own id is no longer pending, so a
  // self-cancel reports false and has no effect.
  Scheduler sched;
  EventId self;
  bool ran = false;
  self = sched.schedule(kSecond, [&] {
    ran = true;
    EXPECT_FALSE(sched.cancel(self));
  });
  sched.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.executed_count(), 1u);
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
  // Timer-refresh pattern: cancel a pending event and schedule a
  // replacement at the same instant.  The replacement is a NEW event and
  // must run after every survivor scheduled before it.
  Scheduler sched;
  std::vector<int> order;
  const EventId stale = sched.schedule(kSecond, [&] { order.push_back(1); });
  sched.schedule(kSecond, [&] { order.push_back(2); });
  EXPECT_TRUE(sched.cancel(stale));
  sched.schedule(kSecond, [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(Scheduler, AdversarialCancelStormCountsStayConsistent) {
  // Dense same-instant bursts with every other event cancelled — some
  // before run(), some from inside handlers — must never double-execute,
  // resurrect, or lose events.
  Scheduler sched;
  std::vector<EventId> ids;
  int executed = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sched.schedule(kSecond, [&] { ++executed; }));
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    cancelled += sched.cancel(ids[i]);
  }
  // A same-instant saboteur scheduled last cancels the tail survivor.
  sched.schedule(kSecond, [&] { EXPECT_FALSE(sched.cancel(ids[99])); });
  sched.run();
  EXPECT_EQ(cancelled, 50);
  EXPECT_EQ(executed, 50);
  // 50 survivors + the saboteur.
  EXPECT_EQ(sched.executed_count(), 51u);
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
