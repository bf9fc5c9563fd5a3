// Tests for the link layer: serialization delay, propagation, FIFO
// queueing, drop-tail behaviour, and the fault model's frame fates.  Every
// test sends through the production path, send(size, Frame), with a
// receiver installed by set_receiver().

#include <gtest/gtest.h>

#include <vector>

#include "event/scheduler.hpp"
#include "net/link.hpp"
#include "net/node.hpp"

namespace tactic::net {
namespace {

using event::kMillisecond;
using event::kSecond;
using event::Time;

/// Installs a receiver on `link` that logs every arriving frame: its
/// `kind` (the tests number frames with it), arrival time and fate.
class Arrivals {
 public:
  struct Arrival {
    std::uint32_t frame = 0;
    Time at = 0;
    FrameFate fate;
  };

  Arrivals(Link& link, const event::Scheduler& sched) {
    link.set_receiver([this, &sched](const FrameFate& fate, Frame&& frame) {
      log_.push_back(Arrival{frame.kind, sched.now(), fate});
    });
  }
  Arrivals(const Arrivals&) = delete;
  Arrivals& operator=(const Arrivals&) = delete;

  const std::vector<Arrival>& log() const { return log_; }
  std::size_t size() const { return log_.size(); }
  /// Frames that arrived uncorrupted (what a payload handler accepts).
  int intact() const {
    int n = 0;
    for (const Arrival& a : log_) n += a.fate.corrupted ? 0 : 1;
    return n;
  }

 private:
  std::vector<Arrival> log_;
};

/// Sends frame number `n` (carried in Frame::kind) of `size` bytes.
bool send(Link& link, std::size_t size, std::uint32_t n = 0) {
  return link.send(size, Frame{nullptr, n});
}

TEST(NodeKind, Names) {
  EXPECT_STREQ(to_string(NodeKind::kClient), "client");
  EXPECT_STREQ(to_string(NodeKind::kEdgeRouter), "edge");
  EXPECT_STREQ(to_string(NodeKind::kCoreRouter), "core");
  EXPECT_STREQ(to_string(NodeKind::kProvider), "provider");
  EXPECT_TRUE(is_router(NodeKind::kEdgeRouter));
  EXPECT_TRUE(is_router(NodeKind::kCoreRouter));
  EXPECT_FALSE(is_router(NodeKind::kClient));
  EXPECT_FALSE(is_router(NodeKind::kAccessPoint));
}

TEST(LinkParams, PaperPresets) {
  const LinkParams core = core_link_params();
  EXPECT_DOUBLE_EQ(core.bits_per_second, 500e6);
  EXPECT_EQ(core.propagation_delay, kMillisecond);
  const LinkParams edge = edge_link_params();
  EXPECT_DOUBLE_EQ(edge.bits_per_second, 10e6);
  EXPECT_EQ(edge.propagation_delay, 2 * kMillisecond);
}

TEST(Link, SingleFrameDelay) {
  event::Scheduler sched;
  // 1 Mbps, 10 ms propagation: a 1000-byte frame serializes in 8 ms.
  Link link(sched, {1e6, 10 * kMillisecond, 10});
  Arrivals arrivals(link, sched);
  send(link, 1000);
  sched.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals.log()[0].at, 18 * kMillisecond);
  EXPECT_EQ(link.counters().frames_sent, 1u);
  EXPECT_EQ(link.counters().bytes_sent, 1000u);
}

TEST(Link, BackToBackFramesSerialize) {
  event::Scheduler sched;
  Link link(sched, {1e6, 0, 10});
  Arrivals arrivals(link, sched);
  for (std::uint32_t i = 0; i < 3; ++i) send(link, 1000, i);
  sched.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each 1000-byte frame takes 8 ms on the wire; they queue FIFO.
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(arrivals.log()[i].frame, i);
  }
  EXPECT_EQ(arrivals.log()[0].at, 8 * kMillisecond);
  EXPECT_EQ(arrivals.log()[1].at, 16 * kMillisecond);
  EXPECT_EQ(arrivals.log()[2].at, 24 * kMillisecond);
}

TEST(Link, IdleGapsDoNotAccumulate) {
  event::Scheduler sched;
  Link link(sched, {1e6, 0, 10});
  Arrivals arrivals(link, sched);
  send(link, 1000);
  sched.schedule(100 * kMillisecond, [&] { send(link, 1000); });
  sched.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals.log()[1].at, 108 * kMillisecond);  // restarts from idle
}

TEST(Link, DropTailWhenQueueFull) {
  event::Scheduler sched;
  Link link(sched, {1e6, 0, 2});
  Arrivals arrivals(link, sched);
  EXPECT_TRUE(send(link, 1000));
  EXPECT_TRUE(send(link, 1000));
  EXPECT_FALSE(send(link, 1000));  // queue full
  EXPECT_EQ(link.counters().dropped_queue_full, 1u);
  EXPECT_EQ(link.counters().refused_link_down, 0u);
  EXPECT_EQ(link.counters().frames_dropped(), 1u);
  sched.run();
  EXPECT_EQ(arrivals.size(), 2u);
  // Queue drained: sending works again.
  EXPECT_TRUE(send(link, 1000));
  sched.run();
  EXPECT_EQ(arrivals.size(), 3u);
}

TEST(Link, QueueDepthTracksInFlight) {
  event::Scheduler sched;
  Link link(sched, {1e6, 0, 10});
  EXPECT_EQ(link.queue_depth(), 0u);
  send(link, 1000);
  send(link, 1000);
  EXPECT_EQ(link.queue_depth(), 2u);
  sched.run();
  EXPECT_EQ(link.queue_depth(), 0u);
}

TEST(Link, TinyFrameStillTakesNonzeroTime) {
  event::Scheduler sched;
  Link link(sched, {500e6, 0, 10});
  Arrivals arrivals(link, sched);
  send(link, 0);
  sched.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_GE(arrivals.log()[0].at, 1);  // at least one ns of serialization
}

TEST(Link, DownLinkRefusesButInFlightArrives) {
  event::Scheduler sched;
  Link link(sched, {1e6, 10 * kMillisecond, 10});
  Arrivals arrivals(link, sched);
  EXPECT_TRUE(link.up());
  EXPECT_TRUE(send(link, 1000));
  link.set_up(false);
  EXPECT_FALSE(link.up());
  EXPECT_FALSE(send(link, 1000));
  EXPECT_EQ(link.counters().refused_link_down, 1u);
  EXPECT_EQ(link.counters().dropped_queue_full, 0u);
  EXPECT_EQ(link.counters().frames_dropped(), 1u);
  sched.run();
  EXPECT_EQ(arrivals.size(), 1u);  // the frame already on the wire arrives
  link.set_up(true);
  EXPECT_TRUE(send(link, 1000));
  sched.run();
  EXPECT_EQ(arrivals.size(), 2u);
}

TEST(LinkFaults, LossIsSilentAndDeterministic) {
  // Same seed => identical per-frame fates; the sender still sees
  // send()==true for lost frames (wireless loss is silent).
  auto run = [](std::uint64_t seed) {
    event::Scheduler sched;
    Link link(sched, {1e6, 0, 1000});
    LinkFaultParams faults;
    faults.loss = 0.3;
    link.set_fault_model(faults, util::Rng(seed));
    Arrivals arrivals(link, sched);
    for (std::uint32_t i = 0; i < 200; ++i) {
      EXPECT_TRUE(send(link, 100, i));
    }
    sched.run();
    std::vector<std::uint32_t> delivered;
    for (const auto& arrival : arrivals.log()) {
      delivered.push_back(arrival.frame);
    }
    EXPECT_EQ(link.counters().frames_sent, 200u);
    EXPECT_EQ(link.counters().frames_lost, 200u - delivered.size());
    return delivered;
  };
  const std::vector<std::uint32_t> a = run(7);
  const std::vector<std::uint32_t> b = run(7);
  const std::vector<std::uint32_t> c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different fates
  EXPECT_GT(a.size(), 100u);  // ~70% should survive
  EXPECT_LT(a.size(), 200u);  // some loss must occur
}

TEST(LinkFaults, GilbertElliottLosesInBursts) {
  event::Scheduler sched;
  Link link(sched, {1e6, 0, 100000});
  LinkFaultParams faults;
  faults.p_enter_burst = 0.05;
  faults.p_exit_burst = 0.3;
  faults.burst_loss = 1.0;  // everything in the bad state dies
  link.set_fault_model(faults, util::Rng(42));
  Arrivals arrivals(link, sched);
  for (std::uint32_t i = 0; i < 2000; ++i) send(link, 10, i);
  sched.run();
  std::vector<bool> fate(2000, false);  // true = delivered
  for (const auto& arrival : arrivals.log()) fate[arrival.frame] = true;
  // Losses must cluster: count loss runs of length >= 2.
  std::size_t losses = 0, paired_losses = 0;
  for (std::size_t i = 0; i < fate.size(); ++i) {
    if (!fate[i]) {
      ++losses;
      if (i > 0 && !fate[i - 1]) ++paired_losses;
    }
  }
  ASSERT_GT(losses, 0u);
  // With p_exit 0.3 a loss is followed by another loss ~70% of the time —
  // far above the ~14% stationary loss rate i.i.d. loss would give.
  EXPECT_GT(static_cast<double>(paired_losses) / static_cast<double>(losses),
            0.4);
  EXPECT_EQ(link.counters().frames_lost, losses);
}

TEST(LinkFaults, CorruptionReportsFateAndSeed) {
  event::Scheduler sched;
  Link link(sched, {1e6, 0, 1000});
  LinkFaultParams faults;
  faults.corruption = 1.0;  // every frame arrives mangled
  link.set_fault_model(faults, util::Rng(3));
  Arrivals arrivals(link, sched);
  for (std::uint32_t i = 0; i < 5; ++i) send(link, 100, i);
  sched.run();
  ASSERT_EQ(arrivals.size(), 5u);
  for (const auto& arrival : arrivals.log()) {
    EXPECT_TRUE(arrival.fate.corrupted);
  }
  EXPECT_EQ(link.counters().frames_corrupted, 5u);
  // Per-frame corruption seeds differ (each frame flips different bits).
  EXPECT_NE(arrivals.log()[0].fate.corruption_seed,
            arrivals.log()[1].fate.corruption_seed);
}

TEST(LinkFaults, FateObliviousOverloadDropsCorruptFrames) {
  // A corrupted frame still reaches the receiver, flagged, so a receiver
  // that accepts only intact frames (the L2 CRC check
  // Forwarder::add_link_face makes) delivers nothing.
  event::Scheduler sched;
  Link link(sched, {1e6, 0, 1000});
  LinkFaultParams faults;
  faults.corruption = 1.0;
  link.set_fault_model(faults, util::Rng(3));
  Arrivals arrivals(link, sched);
  send(link, 100);
  sched.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals.intact(), 0);
  EXPECT_EQ(link.counters().frames_corrupted, 1u);
}

TEST(LinkFaults, NoFaultModelMeansNoFaultCounters) {
  event::Scheduler sched;
  Link link(sched, {1e6, 0, 10});
  Arrivals arrivals(link, sched);
  for (int i = 0; i < 5; ++i) send(link, 100);
  sched.run();
  EXPECT_EQ(arrivals.intact(), 5);
  EXPECT_EQ(link.counters().frames_lost, 0u);
  EXPECT_EQ(link.counters().frames_corrupted, 0u);
  EXPECT_FALSE(link.fault_params().any());
}

TEST(Link, FastLinkDeliversQuickly) {
  event::Scheduler sched;
  Link link(sched, core_link_params());
  Arrivals arrivals(link, sched);
  send(link, 1024);
  sched.run();
  ASSERT_EQ(arrivals.size(), 1u);
  // 1024 bytes at 500 Mbps ~= 16.4 us, plus 1 ms propagation.
  EXPECT_GT(arrivals.log()[0].at, kMillisecond);
  EXPECT_LT(arrivals.log()[0].at, kMillisecond + 30 * event::kMicrosecond);
}

}  // namespace
}  // namespace tactic::net
