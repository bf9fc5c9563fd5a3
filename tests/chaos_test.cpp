// Tests for the network chaos layer: link fault plans, router
// crash-restart with state loss, client retransmission with backoff, and
// the determinism guarantees the fault subsystem makes (same seed + same
// FaultPlan => identical metrics fingerprint and packet-trace digest).

#include <gtest/gtest.h>

#include "ndn/forwarder.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"
#include "tactic/tactic_policy.hpp"
#include "testing/fingerprint.hpp"
#include "testing/invariants.hpp"

namespace tactic {
namespace {

using event::kMillisecond;
using event::kSecond;

sim::ScenarioConfig fast_tactic(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.topology = topology::paper_topology(1);
  config.provider.key_bits = 512;  // fast setup; semantics identical
  config.duration = 30 * kSecond;
  config.seed = seed;
  return config;
}

TEST(FaultPlan, EmptyPlanIsInert) {
  const sim::FaultPlan plan;
  EXPECT_FALSE(plan.any());
  EXPECT_FALSE(plan.severe(100 * kSecond));
}

TEST(FaultPlan, SevereClassifier) {
  const event::Time duration = 100 * kSecond;
  sim::FaultPlan lossy;
  lossy.edge_links.loss = 0.3;
  EXPECT_TRUE(lossy.any());
  EXPECT_TRUE(lossy.severe(duration));
  lossy.edge_links.loss = 0.05;
  EXPECT_FALSE(lossy.severe(duration));

  // A permanent burst state counts through its stationary fraction.
  sim::FaultPlan bursty;
  bursty.edge_links.p_enter_burst = 0.5;
  bursty.edge_links.p_exit_burst = 0.5;
  bursty.edge_links.burst_loss = 1.0;  // ~50% of frames die
  EXPECT_TRUE(bursty.severe(duration));

  // Scripted outages: a crash spanning most of the run is severe, a
  // short blip is not.
  sim::FaultPlan crashy;
  crashy.crashes.push_back(
      {sim::CrashEvent::Target::kEdgeRouter, 0, 10 * kSecond, 80 * kSecond});
  EXPECT_TRUE(crashy.severe(duration));
  crashy.crashes[0].down_for = 2 * kSecond;
  EXPECT_FALSE(crashy.severe(duration));

  // down_for == 0 means "down for the rest of the run".
  sim::FaultPlan forever;
  forever.crashes.push_back(
      {sim::CrashEvent::Target::kCoreRouter, 0, 10 * kSecond, 0});
  EXPECT_TRUE(forever.severe(duration));
}

TEST(Chaos, ForwarderCrashAndRestartSemantics) {
  event::Scheduler sched;
  ndn::Forwarder node(
      sched, net::NodeInfo{0, net::NodeKind::kCoreRouter, "r"}, 10);
  // Volatile state to lose.
  node.pit().get_or_create(ndn::Name("/pending"));
  ndn::Data cached;
  cached.name = ndn::Name("/cached");
  node.cs().insert(cached);
  ASSERT_EQ(node.pit().size(), 1u);
  ASSERT_EQ(node.cs().size(), 1u);

  EXPECT_TRUE(node.alive());
  node.crash();
  node.crash();  // idempotent
  EXPECT_FALSE(node.alive());
  EXPECT_EQ(node.counters().crashes, 1u);
  EXPECT_EQ(node.pit().size(), 0u);  // PIT lost
  EXPECT_EQ(node.cs().size(), 0u);   // CS lost

  // Arrivals while down are refused and counted.
  ndn::Interest interest;
  interest.name = ndn::Name("/x");
  interest.nonce = 1;
  interest.lifetime = kSecond;
  node.receive(0, ndn::make_packet(std::move(interest)));
  EXPECT_EQ(node.counters().dropped_while_down, 1u);
  EXPECT_EQ(node.counters().interests_received, 0u);

  node.restart();
  node.restart();  // idempotent
  EXPECT_TRUE(node.alive());
  EXPECT_EQ(node.counters().restarts, 1u);
}

// The pinned acceptance scenario: an edge router crash-restart wipes its
// Bloom filter, forcing the F=0 "cannot vouch" fallback and a signature
// re-validation surge, while client delivery recovers through
// retransmission.
TEST(Chaos, EdgeRestartWipesBloomAndForcesRevalidation) {
  sim::ScenarioConfig config = fast_tactic(90);
  const event::Time crash_at = 15 * kSecond;
  const event::Time down_for = kSecond;

  sim::Scenario scenario(config);
  // Crash the edge router that client 0 sits behind, so the outage is
  // guaranteed to hit live traffic.
  auto& network = scenario.network();
  const net::NodeId edge_id =
      network.edge_router_of(network.clients()[0]);
  std::size_t edge_index = 0;
  for (std::size_t i = 0; i < network.edge_routers().size(); ++i) {
    if (network.edge_routers()[i] == edge_id) edge_index = i;
  }
  // (Scheduling the crash by hand rather than via the FaultPlan so the
  // test can resolve the index from the built topology first.)
  scenario.scheduler().schedule_at(
      crash_at, [&network, edge_id] { network.node(edge_id).crash(); });
  scenario.scheduler().schedule_at(
      crash_at + down_for,
      [&network, edge_id] { network.node(edge_id).restart(); });
  (void)edge_index;

  const auto* policy = dynamic_cast<const core::TacticRouterPolicy*>(
      &network.node(edge_id).policy());
  ASSERT_NE(policy, nullptr);

  std::size_t bloom_before_crash = 0;
  std::size_t bloom_after_restart = ~std::size_t{0};
  scenario.scheduler().schedule_at(crash_at - kMillisecond, [&] {
    bloom_before_crash = policy->bloom().item_count();
  });
  // This observer was enqueued after the restart event above, so at the
  // shared timestamp it runs after restart() but before any packet (the
  // node was dead an instant ago, and links have >= ms latencies).
  scenario.scheduler().schedule_at(crash_at + down_for, [&] {
    bloom_after_restart = policy->bloom().item_count();
  });

  // Direct F=0 observation: tagged Interests the restarted edge transmits
  // before its BF refills must carry flag_f == 0 ("cannot vouch").
  std::uint64_t f0_interests_after_restart = 0;
  network.node(edge_id).add_tracer(
      [&scenario, &f0_interests_after_restart, crash_at, down_for](
          const ndn::Forwarder&, const ndn::PacketVariant& packet,
          ndn::FaceId, bool is_rx) {
        if (is_rx) return;
        const event::Time now = scenario.scheduler().now();
        if (now < crash_at + down_for || now > crash_at + down_for + kSecond)
          return;
        const auto* interest = std::get_if<ndn::InterestPtr>(&packet);
        if (interest && (*interest)->tag && (*interest)->flag_f == 0.0) {
          ++f0_interests_after_restart;
        }
      });

  const sim::Metrics& metrics = scenario.run();

  EXPECT_GT(bloom_before_crash, 0u);   // steady state had vouched tags
  EXPECT_EQ(bloom_after_restart, 0u);  // restart wiped the filter
  EXPECT_GT(policy->bloom().item_count(), 0u);  // ... and traffic refilled it
  EXPECT_GT(f0_interests_after_restart, 0u);
  EXPECT_EQ(metrics.node_crashes, 1u);
  EXPECT_EQ(metrics.node_restarts, 1u);
  EXPECT_GT(metrics.packets_dropped_while_down, 0u);

  // The F=0 fallback pushes the re-validation cost upstream: compared
  // against the identical run without the crash, core routers and the
  // provider pay strictly more signature verifications (the edge never
  // verifies in TACTIC's happy path — it re-inserts from returning F=0
  // content).
  const sim::Metrics clean = sim::Scenario(fast_tactic(90)).run();
  EXPECT_GT(metrics.core_ops.sig_verifications +
                metrics.provider_sig_verifications,
            clean.core_ops.sig_verifications +
                clean.provider_sig_verifications);
  EXPECT_EQ(clean.node_crashes, 0u);

  // Delivery recovers through retransmission rather than dying with the
  // router: the outage is visible as retries, not abandoned chunks.
  EXPECT_GT(metrics.clients.retransmissions, 0u);
  EXPECT_EQ(metrics.clients.chunks_abandoned, 0u);
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.95);
}

// Acceptance bar: at 1% edge loss the default retry policy abandons
// nothing — every lost exchange is recovered within the retry budget.
TEST(Chaos, OnePercentEdgeLossAbandonsNothing) {
  sim::ScenarioConfig config = fast_tactic(91);
  config.faults.edge_links.loss = 0.01;

  sim::Scenario scenario(config);
  const sim::Metrics& metrics = scenario.run();

  EXPECT_GT(metrics.link_frames_lost, 0u);
  EXPECT_GT(metrics.clients.retransmissions, 0u);
  EXPECT_EQ(metrics.clients.chunks_abandoned, 0u);
  // Recovery latency samples exist exactly because retransmission did
  // real work (first-attempt-to-delivery spans for retried chunks).
  EXPECT_GT(metrics.recovery_latency.total_count(), 0u);
  // Attempt-based accounting: ratio dips by roughly the loss rate, no
  // further.
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.96);
}

TEST(Chaos, RegistrationRetriesThroughAccessLinkFlap) {
  sim::ScenarioConfig config = fast_tactic(92);
  // Client 0's wireless access link is dead for the first four seconds:
  // its initial registration must survive on the unified retransmission
  // path (timeout -> backoff -> fresh-nonce retry) and succeed once the
  // link returns.
  config.faults.flaps.push_back(
      {sim::LinkFlap::Where::kClientAccess, 0, 0, 4 * kSecond, false});

  sim::Scenario scenario(config);
  const sim::Metrics& metrics = scenario.run();

  EXPECT_GT(metrics.clients.registration_retransmissions, 0u);
  EXPECT_GT(metrics.clients.tags_received, 0u);
  EXPECT_GT(metrics.clients.received, 0u);
  EXPECT_GT(metrics.link_refused_link_down, 0u);
}

// Same seed + same FaultPlan => identical metrics fingerprint and trace
// hash chain, with every fault class active at once.
TEST(Chaos, DoubleRunDeterminismWithFaults) {
  sim::ScenarioConfig config = fast_tactic(93);
  config.duration = 20 * kSecond;
  config.faults.edge_links.loss = 0.03;
  config.faults.edge_links.corruption = 0.01;
  config.faults.edge_links.p_enter_burst = 0.01;
  config.faults.edge_links.p_exit_burst = 0.3;
  config.faults.core_links.loss = 0.005;
  config.faults.crashes.push_back(
      {sim::CrashEvent::Target::kEdgeRouter, 0, 8 * kSecond, kSecond});
  config.faults.flaps.push_back(
      {sim::LinkFlap::Where::kEdgeUplink, 0, 12 * kSecond,
       13 * kSecond, false});

  auto run = [&config] {
    sim::Scenario scenario(config);
    testing::InvariantChecker checker(scenario);
    checker.arm();
    scenario.run();
    checker.finalize();
    EXPECT_TRUE(checker.ok()) << checker.report();
    return std::pair<std::string, std::string>{
        testing::fingerprint_digest(scenario.harvest()),
        checker.trace_digest()};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// Corrupted frames feed the real wire decoders (the probe) but are then
// dropped as if L2 CRC caught them — none is ever honoured, so the
// security invariants hold unconditionally under corruption.
TEST(Chaos, CorruptFramesAreProbedAndRejected) {
  sim::ScenarioConfig config = fast_tactic(94);
  config.duration = 20 * kSecond;
  config.faults.edge_links.corruption = 0.05;

  sim::Scenario scenario(config);
  testing::InvariantChecker checker(scenario);
  checker.arm();
  scenario.run();
  checker.finalize();
  EXPECT_TRUE(checker.ok()) << checker.report();

  const sim::Metrics metrics = scenario.harvest();
  EXPECT_GT(metrics.link_frames_corrupted, 0u);
  // Every corrupted frame that arrived was rejected at the CRC shim.
  EXPECT_EQ(metrics.corrupt_frames_rejected, metrics.link_frames_corrupted);
}

// An all-zero plan with a different fault_seed is still "no plan": the
// run must be bit-identical to the default-config run (the fault RNG is
// never even seeded).
TEST(Chaos, EmptyPlanIsBitIdenticalToNoPlan) {
  sim::ScenarioConfig base = fast_tactic(95);
  base.duration = 15 * kSecond;
  sim::ScenarioConfig with_inert_plan = base;
  with_inert_plan.faults.fault_seed = 0xDEADBEEF;

  const sim::Metrics a = sim::Scenario(base).run();
  const sim::Metrics b = sim::Scenario(with_inert_plan).run();
  EXPECT_EQ(testing::fingerprint(a), testing::fingerprint(b));
  EXPECT_EQ(a.link_frames_lost, 0u);
  EXPECT_EQ(a.node_crashes, 0u);
}

}  // namespace
}  // namespace tactic
