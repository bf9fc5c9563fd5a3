// Scenario-level integration tests: the system invariants the paper's
// evaluation rests on, checked over full runs of the real stack
// (crypto + Bloom + NDN + topology + TACTIC + workload).

#include <gtest/gtest.h>

#if __has_include(<sys/single_threaded.h>)
#include <sys/single_threaded.h>
#define TACTIC_HAVE_SINGLE_THREADED 1
#endif

#include "sim/scenario.hpp"

namespace tactic::sim {
namespace {

using event::kSecond;

ScenarioConfig fast_topo1(std::uint64_t seed = 1) {
  ScenarioConfig config;
  config.topology = topology::paper_topology(1);
  config.provider.key_bits = 512;  // fast setup; semantics identical
  config.duration = 30 * kSecond;
  config.seed = seed;
  config.attacker.think_time_mean = 2 * kSecond;  // denser attack traffic
  return config;
}

TEST(Integration, TableIVInvariant_ClientsHighAttackersZero) {
  Scenario scenario(fast_topo1(41));
  const Metrics& metrics = scenario.run();
  // Paper Table IV: clients ~0.9997+, attackers ~0-0.78%.
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.99);
  EXPECT_LT(metrics.attackers.delivery_ratio(), 0.01);
  EXPECT_GT(metrics.clients.requested, 10000u);
  EXPECT_GT(metrics.attackers.requested, 50u);
}

TEST(Integration, DeterministicAcrossRuns) {
  const Metrics a = Scenario(fast_topo1(7)).run();
  const Metrics b = Scenario(fast_topo1(7)).run();
  EXPECT_EQ(a.clients.requested, b.clients.requested);
  EXPECT_EQ(a.clients.received, b.clients.received);
  EXPECT_EQ(a.attackers.requested, b.attackers.requested);
  EXPECT_EQ(a.edge_ops.bf_lookups, b.edge_ops.bf_lookups);
  EXPECT_EQ(a.edge_ops.sig_verifications, b.edge_ops.sig_verifications);
  EXPECT_EQ(a.link_bytes_sent, b.link_bytes_sent);
}

TEST(Integration, SeedsChangeOutcomes) {
  const Metrics a = Scenario(fast_topo1(1)).run();
  const Metrics b = Scenario(fast_topo1(2)).run();
  EXPECT_NE(a.clients.requested, b.clients.requested);
}

TEST(Integration, Fig7Invariant_LookupsDominateVerifications) {
  Scenario scenario(fast_topo1(42));
  const Metrics& metrics = scenario.run();
  // Fig. 7: BF lookups (cheap) happen orders of magnitude more often than
  // signature verifications (expensive) at the edge.
  EXPECT_GT(metrics.edge_ops.bf_lookups, 1000u);
  EXPECT_GT(metrics.edge_ops.bf_lookups,
            100 * std::max<std::uint64_t>(
                      1, metrics.edge_ops.sig_verifications));
  // Core routers do drastically less work than edge routers (request
  // aggregation + cooperation), per the paper's Fig. 7 discussion.
  EXPECT_LT(metrics.core_ops.bf_lookups, metrics.edge_ops.bf_lookups / 10);
}

TEST(Integration, Fig6Invariant_TagRatesTrackValidity) {
  // Shorter tag validity means more frequent re-registration (paper
  // Fig. 6 inset: 10 s vs 100 s).  Over a 30 s run the first-touch
  // registrations are a fixed floor; the re-registration component must
  // decrease monotonically with the validity period.
  auto tags_requested_at = [](event::Time validity) {
    ScenarioConfig config = fast_topo1(43);
    config.provider.tag_validity = validity;
    return Scenario(config).run().clients.tags_requested;
  };
  const std::uint64_t te5 = tags_requested_at(5 * kSecond);
  const std::uint64_t te10 = tags_requested_at(10 * kSecond);
  const std::uint64_t te1000 = tags_requested_at(1000 * kSecond);
  EXPECT_GT(te5, te10);
  EXPECT_GT(te10, te1000);
  EXPECT_GT(static_cast<double>(te5),
            1.3 * static_cast<double>(te1000));
}

TEST(Integration, TagChurnDrivesBloomInsertions) {
  Scenario scenario(fast_topo1(44));
  const Metrics& metrics = scenario.run();
  // Each issued tag is inserted at (at least) the issuing client's edge
  // router when the registration response passes it.
  EXPECT_GE(metrics.edge_ops.bf_insertions, metrics.clients.tags_received);
}

TEST(Integration, SmallBloomResetsMoreThanLarge) {
  ScenarioConfig small_bf = fast_topo1(45);
  small_bf.tactic.bloom.capacity = 25;
  ScenarioConfig large_bf = fast_topo1(45);
  large_bf.tactic.bloom.capacity = 2500;

  const Metrics small = Scenario(small_bf).run();
  const Metrics large = Scenario(large_bf).run();
  // Table V's trend: growing the BF eliminates (nearly) all resets.
  EXPECT_GT(small.edge_ops.bf_resets, large.edge_ops.bf_resets);
  EXPECT_GT(small.edge_ops.bf_resets, 0u);
}

TEST(Integration, ResetsForceReverification) {
  ScenarioConfig config = fast_topo1(46);
  config.tactic.bloom.capacity = 25;  // frequent resets
  const Metrics churning = Scenario(config).run();

  ScenarioConfig stable = fast_topo1(46);
  stable.tactic.bloom.capacity = 5000;  // never resets in 30 s
  const Metrics quiet = Scenario(stable).run();

  // After each edge reset, tags re-enter with F = 0 and must be
  // re-vouched upstream; total verification work grows.
  const std::uint64_t churn_verifies =
      churning.edge_ops.sig_verifications +
      churning.core_ops.sig_verifications +
      churning.provider_sig_verifications;
  const std::uint64_t quiet_verifies =
      quiet.edge_ops.sig_verifications + quiet.core_ops.sig_verifications +
      quiet.provider_sig_verifications;
  EXPECT_GT(churn_verifies, quiet_verifies);
}

TEST(Integration, NoLinkOverloadInSteadyState) {
  Scenario scenario(fast_topo1(47));
  const Metrics& metrics = scenario.run();
  // Drop-tail losses should be a negligible fraction of traffic.
  EXPECT_LT(metrics.link_frames_dropped, metrics.clients.requested / 100);
}

TEST(Integration, CachesServeRepeatTraffic) {
  Scenario scenario(fast_topo1(48));
  const Metrics& metrics = scenario.run();
  EXPECT_GT(metrics.cache_hit_ratio(), 0.02);
  EXPECT_LT(metrics.provider_content_served, metrics.clients.received);
}

TEST(Integration, ZeroAttackersConfigWorks) {
  ScenarioConfig config = fast_topo1(49);
  config.topology.attackers = 0;
  Scenario scenario(config);
  const Metrics& metrics = scenario.run();
  EXPECT_EQ(metrics.attackers.requested, 0u);
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.99);
}

TEST(Integration, PublicContentNeedsNoTags) {
  ScenarioConfig config = fast_topo1(50);
  config.provider.catalog.public_fraction = 1.0;  // everything public
  Scenario scenario(config);
  const Metrics& metrics = scenario.run();
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.99);
  // No protected prefixes -> no registrations ever needed.
  EXPECT_EQ(metrics.clients.tags_requested, 0u);
  // Attackers legitimately read public content; that is not a breach.
  EXPECT_GT(metrics.attackers.delivery_ratio(), 0.5);
}

// A run starts no thread.  One thread, even one joined before the run,
// clears glibc's __libc_single_threaded for the rest of the process, and
// libstdc++ then updates every shared_ptr count with a locked
// instruction (docs/ARCHITECTURE.md, "Event engine").
TEST(Integration, RunStaysSingleThreaded) {
#ifndef TACTIC_HAVE_SINGLE_THREADED
  GTEST_SKIP() << "no <sys/single_threaded.h>";
#else
  ASSERT_TRUE(__libc_single_threaded) << "a thread started before the run";
  ScenarioConfig config = fast_topo1(52);
  config.duration = 5 * kSecond;
  Scenario scenario(config);
  const Metrics metrics = scenario.run();
  EXPECT_GT(metrics.clients.received, 0u);
  EXPECT_TRUE(__libc_single_threaded);
#endif
}

TEST(Integration, RunTwiceThrows) {
  Scenario scenario(fast_topo1(51));
  scenario.run();
  EXPECT_THROW(scenario.run(), std::logic_error);
}

TEST(Integration, CachedContentSurvivesProviderOutage) {
  // The paper's core availability argument: clients with valid tags keep
  // retrieving *cached* content even when the provider (the would-be
  // always-online authentication server) is unreachable.
  ScenarioConfig config = fast_topo1(52);
  config.duration = 40 * kSecond;
  // Tags outlive the outage so only content availability is at stake.
  config.provider.tag_validity = 120 * kSecond;
  // One-shot requests: retrying dead-provider chunks through backoff only
  // throttles the request stream this test measures cache service with.
  config.client.max_retries = 0;
  Scenario scenario(config);

  // Count deliveries before/after the outage begins.
  const event::Time cut_at = 20 * kSecond;
  std::uint64_t after_cut = 0;
  for (auto& client : scenario.clients()) {
    client->on_latency_sample = [&, base = client->on_latency_sample](
                                    event::Time when, double latency) {
      if (base) base(when, latency);
      if (when > cut_at) ++after_cut;
    };
  }
  scenario.scheduler().schedule(cut_at, [&] {
    for (std::size_t i = 0; i < scenario.providers().size(); ++i) {
      const net::NodeId provider = scenario.network().providers()[i];
      scenario.set_adjacency_up(
          provider, scenario.network().gateway_of(provider), false,
          /*reconverge=*/false);
    }
  });
  scenario.run();
  // In-network caches keep a meaningful share of traffic alive.
  EXPECT_GT(after_cut, 1000u);
}

TEST(Integration, RoutingReconvergesAroundCoreFailure) {
  ScenarioConfig config = fast_topo1(53);
  config.duration = 40 * kSecond;
  Scenario scenario(config);

  // At t=20s, cut every adjacency of the busiest core router and let the
  // routing reconverge; delivery must recover.
  scenario.scheduler().schedule(20 * kSecond, [&] {
    net::NodeId busiest = scenario.network().core_routers()[0];
    std::uint64_t best = 0;
    for (const net::NodeId id : scenario.network().core_routers()) {
      const std::uint64_t seen =
          scenario.network().node(id).counters().interests_received;
      if (seen > best) {
        best = seen;
        busiest = id;
      }
    }
    for (net::NodeId other = 0; other < scenario.network().node_count();
         ++other) {
      if (other == busiest) continue;
      try {
        scenario.set_adjacency_up(busiest, other, false,
                                  /*reconverge=*/false);
      } catch (const std::invalid_argument&) {
      }
    }
    // One reconvergence pass after the failure is detected.
    scenario.reconverge();
  });
  const Metrics& metrics = scenario.run();
  // Some requests die during the outage window, but the system recovers:
  // overall delivery stays high.
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.95);
}

class TopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(TopologySweep, InvariantsHoldOnAllPaperTopologies) {
  ScenarioConfig config;
  config.topology = topology::paper_topology(GetParam());
  config.provider.key_bits = 512;
  config.duration = 12 * kSecond;
  config.seed = 60 + static_cast<std::uint64_t>(GetParam());
  config.attacker.think_time_mean = 2 * kSecond;
  Scenario scenario(config);
  const Metrics& metrics = scenario.run();
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.98);
  EXPECT_LT(metrics.attackers.delivery_ratio(), 0.02);
}

INSTANTIATE_TEST_SUITE_P(PaperTopologies, TopologySweep,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tactic::sim
