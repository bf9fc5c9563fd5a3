// Tests for the overload-resilience layer: the deterministic validation
// queue and its multi-lane form, negative-tag verdict cache, and
// token-bucket primitives; bounded
// PIT with LRU eviction; the client back-off ceiling; and the pinned
// scenario-level guarantees — an attacker flood is shed while valid
// clients keep their delivery, a staged BF reset suppresses the
// re-validation surge, a disabled layer is bit-identical to the
// pre-overload model, and everything stays deterministic.

#include <gtest/gtest.h>

#include "ndn/forwarder.hpp"
#include "sim/scenario.hpp"
#include "tactic/overload.hpp"
#include "tactic/tactic_policy.hpp"
#include "testing/fingerprint.hpp"
#include "testing/invariants.hpp"

namespace tactic {
namespace {

using event::kMillisecond;
using event::kSecond;

// ---------------------------------------------------------------------------
// ValidationQueue
// ---------------------------------------------------------------------------

TEST(ValidationQueue, FifoBacklogAndWaitAccounting) {
  core::ValidationQueue queue;
  // First job: empty server, no wait.
  EXPECT_EQ(queue.admit(0, 10), 10);
  // Second job arrives while the first is in service: waits 10.
  EXPECT_EQ(queue.admit(0, 5), 15);
  EXPECT_EQ(queue.total_wait(), 10);
  EXPECT_EQ(queue.peak_depth(), 2u);

  EXPECT_EQ(queue.depth(0), 2u);
  EXPECT_EQ(queue.depth(12), 1u);  // first completed at 10
  EXPECT_EQ(queue.depth(15), 0u);  // exactly-at-completion is done
}

TEST(ValidationQueue, IdleGapResetsBacklog) {
  core::ValidationQueue queue;
  EXPECT_EQ(queue.admit(0, 10), 10);
  // Arrives long after the server went idle: full-service delay only.
  EXPECT_EQ(queue.admit(50, 5), 5);
  EXPECT_EQ(queue.total_wait(), 0);
}

TEST(ValidationQueue, ResetDropsPendingWork) {
  core::ValidationQueue queue;
  queue.admit(0, 100);
  queue.admit(0, 100);
  ASSERT_EQ(queue.depth(0), 2u);
  queue.reset();
  EXPECT_EQ(queue.depth(0), 0u);
  // The server is free again immediately.
  EXPECT_EQ(queue.admit(0, 7), 7);
}

// ---------------------------------------------------------------------------
// ValidationLanes
// ---------------------------------------------------------------------------

TEST(ValidationLanes, SingleLaneMatchesValidationQueue) {
  core::ValidationQueue queue;
  core::ValidationLanes lanes(1);
  for (event::Time now : {0, 5, 9, 9, 40}) {
    const event::Time service = 7;
    EXPECT_EQ(queue.admit(now, service), lanes.admit(0, now, service));
  }
  EXPECT_EQ(lanes.steals(), 0u);  // nowhere to steal to
  EXPECT_EQ(queue.total_wait(), lanes.total_wait());
  EXPECT_EQ(queue.peak_depth(), lanes.peak_depth());
}

TEST(ValidationLanes, DeterministicStealToLowestIdleLane) {
  core::ValidationLanes lanes(3);
  // First job occupies its home lane 1.
  EXPECT_EQ(lanes.admit(1, 0, 10), 10);
  EXPECT_EQ(lanes.steals(), 0u);
  // Same instant, same busy home lane: the lowest-indexed idle lane (0)
  // takes it — no waiting, one steal.
  EXPECT_EQ(lanes.admit(1, 0, 10), 10);
  EXPECT_EQ(lanes.steals(), 1u);
  // Next job: lanes 0 and 1 busy, lane 2 idle — steal again.
  EXPECT_EQ(lanes.admit(1, 0, 10), 10);
  EXPECT_EQ(lanes.steals(), 2u);
  // All lanes busy: the job queues FIFO behind its home lane.
  EXPECT_EQ(lanes.admit(1, 0, 10), 20);
  EXPECT_EQ(lanes.steals(), 2u);
  EXPECT_EQ(lanes.depth(0), 4u);
}

TEST(ValidationLanes, IdleHomeLaneIsNeverStolenFrom) {
  core::ValidationLanes lanes(4);
  // An idle home lane takes its own job even when lower-indexed lanes
  // are also idle — stealing only rescues jobs from a busy home.
  EXPECT_EQ(lanes.admit(3, 0, 4), 4);
  EXPECT_EQ(lanes.steals(), 0u);
  EXPECT_EQ(lanes.lane_depth(3, 0), 1u);
  EXPECT_EQ(lanes.lane_depth(0, 0), 0u);
}

TEST(ValidationLanes, ResetWipesEveryLane) {
  core::ValidationLanes lanes(3);
  lanes.admit(0, 0, 100);
  lanes.admit(1, 0, 100);
  lanes.admit(2, 0, 100);
  EXPECT_EQ(lanes.depth(0), 3u);
  lanes.reset();  // crash: pending work dies with the router
  EXPECT_EQ(lanes.depth(0), 0u);
  // Post-restart jobs see fresh lanes, not the dead backlog.
  EXPECT_EQ(lanes.admit(0, 1, 10), 10);
}

TEST(ValidationLanes, ConfigureResizesAndClears) {
  core::ValidationLanes lanes(2);
  lanes.admit(0, 0, 50);
  lanes.configure(5);
  EXPECT_EQ(lanes.lanes(), 5u);
  EXPECT_EQ(lanes.depth(0), 0u);
  lanes.configure(0);  // clamped
  EXPECT_EQ(lanes.lanes(), 1u);
}

// ---------------------------------------------------------------------------
// NegativeTagCache
// ---------------------------------------------------------------------------

/// A cache key: the bytes of a one-letter name (real keys are the 32
/// bytes of Tag::bloom_key()).
util::Bytes key(std::string_view name) { return util::to_bytes(name); }

TEST(NegativeTagCache, TtlExpiryErasesLazily) {
  core::NegativeTagCache cache(/*capacity=*/4, /*ttl=*/10);
  cache.insert(key("a"), 0);
  EXPECT_TRUE(cache.contains(key("a"), 5));
  EXPECT_TRUE(cache.contains(key("a"), 9));    // valid until insert time + ttl
  EXPECT_FALSE(cache.contains(key("a"), 10));  // expired — and erased
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);  // expiry is not a capacity eviction
}

TEST(NegativeTagCache, CapacityEvictsOldestVerdict) {
  core::NegativeTagCache cache(/*capacity=*/2, /*ttl=*/100);
  cache.insert(key("a"), 0);
  cache.insert(key("b"), 1);
  cache.insert(key("c"), 2);  // evicts "a"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.contains(key("a"), 3));
  EXPECT_TRUE(cache.contains(key("b"), 3));
  EXPECT_TRUE(cache.contains(key("c"), 3));
}

TEST(NegativeTagCache, ReinsertRefreshesAndMovesToBack) {
  core::NegativeTagCache cache(/*capacity=*/2, /*ttl=*/100);
  cache.insert(key("a"), 0);
  cache.insert(key("b"), 1);
  cache.insert(key("a"), 2);  // refresh: "b" is now the oldest
  cache.insert(key("c"), 3);  // evicts "b", not "a"
  EXPECT_TRUE(cache.contains(key("a"), 4));
  EXPECT_FALSE(cache.contains(key("b"), 4));
  EXPECT_TRUE(cache.contains(key("c"), 4));
}

// A probe landing exactly on the expiry instant misses (and erases), so
// an immediate re-insert opens a fresh TTL window rather than refreshing
// a verdict that just died — the boundary is closed on the miss side.
TEST(NegativeTagCache, ExpiryExactlyAtProbeTimeStartsFreshWindow) {
  core::NegativeTagCache cache(/*capacity=*/2, /*ttl=*/10);
  cache.insert(key("a"), 0);                   // valid on [0, 10)
  EXPECT_FALSE(cache.contains(key("a"), 10));  // boundary probe: miss + erase
  EXPECT_EQ(cache.size(), 0u);
  cache.insert(key("a"), 10);  // new window [10, 20)
  EXPECT_TRUE(cache.contains(key("a"), 19));
  EXPECT_FALSE(cache.contains(key("a"), 20));
  EXPECT_EQ(cache.evictions(), 0u);  // TTL churn never counts as eviction
}

// TTL-vs-capacity interaction: expired entries that were never probed
// still occupy slots, so capacity eviction charges for deadwood — and a
// lazy probe-erasure afterwards frees a slot that the next insert then
// does not have to evict for.  Eviction order stays verdict age, never
// expiry-awareness.
TEST(NegativeTagCache, CapacityCountsUnprobedExpiredEntries) {
  core::NegativeTagCache cache(/*capacity=*/2, /*ttl=*/5);
  cache.insert(key("a"), 0);  // expires at 5
  cache.insert(key("b"), 1);  // expires at 6
  // Both are long dead at t=10, but nothing probed them: still resident.
  EXPECT_EQ(cache.size(), 2u);
  cache.insert(key("c"), 10);  // at capacity: evicts the oldest verdict ("a")
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  // Probing the dead "b" erases it lazily — an expiry, not an eviction.
  EXPECT_FALSE(cache.contains(key("b"), 10));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  // The freed slot absorbs the next insert without evicting live "c".
  cache.insert(key("d"), 10);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.contains(key("c"), 11));
  EXPECT_TRUE(cache.contains(key("d"), 11));
}

// ---------------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------------

TEST(TokenBucket, BurstThenRefill) {
  core::TokenBucket bucket(/*rate_per_second=*/1.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0));  // burst spent
  // One second later one token has dripped back in.
  EXPECT_TRUE(bucket.try_take(kSecond));
  EXPECT_FALSE(bucket.try_take(kSecond));
  // Refill caps at the burst size no matter how long the idle gap.
  EXPECT_TRUE(bucket.try_take(100 * kSecond));
  EXPECT_TRUE(bucket.try_take(100 * kSecond));
  EXPECT_FALSE(bucket.try_take(100 * kSecond));
}

// ---------------------------------------------------------------------------
// Bounded PIT with LRU eviction
// ---------------------------------------------------------------------------

TEST(BoundedPit, LruEvictionAtCapacity) {
  event::Scheduler sched;
  ndn::Forwarder node(
      sched, net::NodeInfo{0, net::NodeKind::kCoreRouter, "r"}, 0);
  // Route everything to a sink app face so Interests create PIT entries.
  const ndn::FaceId sink = node.add_app_face({});
  const ndn::FaceId in = node.add_app_face({});
  node.fib().add_route(ndn::Name("/"), sink);
  node.set_pit_capacity(4);

  auto send = [&](const std::string& uri, std::uint64_t nonce) {
    ndn::Interest interest;
    interest.name = ndn::Name(uri);
    interest.nonce = nonce;
    interest.lifetime = 100 * kSecond;
    node.receive(in, ndn::make_packet(std::move(interest)));
  };

  for (int i = 0; i < 6; ++i) {
    send("/n" + std::to_string(i), 100 + i);
  }
  // Capacity held; the two oldest entries (/n0, /n1) were evicted.
  EXPECT_EQ(node.pit().size(), 4u);
  EXPECT_EQ(node.counters().pit_evictions, 2u);
  EXPECT_EQ(node.pit().find(ndn::Name("/n0")), nullptr);
  EXPECT_EQ(node.pit().find(ndn::Name("/n1")), nullptr);
  EXPECT_NE(node.pit().find(ndn::Name("/n2")), nullptr);

  // Touching /n2 (the find() above already did) protects it: the next
  // eviction takes /n3 instead.
  send("/n6", 200);
  EXPECT_NE(node.pit().find(ndn::Name("/n2")), nullptr);
  EXPECT_EQ(node.pit().find(ndn::Name("/n3")), nullptr);
  EXPECT_EQ(node.counters().pit_evictions, 3u);

  // Evicted entries took their deadlines with them: running the scheduler
  // past every lifetime expires only the survivors.
  sched.run_until(200 * kSecond);
  EXPECT_EQ(node.pit().size(), 0u);
  EXPECT_EQ(node.counters().pit_expirations, 4u);
}

TEST(BoundedPit, UnboundedByDefault) {
  event::Scheduler sched;
  ndn::Forwarder node(
      sched, net::NodeInfo{0, net::NodeKind::kCoreRouter, "r"}, 0);
  EXPECT_EQ(node.pit_capacity(), 0u);
  const ndn::FaceId sink = node.add_app_face({});
  const ndn::FaceId in = node.add_app_face({});
  node.fib().add_route(ndn::Name("/"), sink);
  for (int i = 0; i < 50; ++i) {
    ndn::Interest interest;
    interest.name = ndn::Name("/n" + std::to_string(i));
    interest.nonce = 100 + i;
    interest.lifetime = kSecond;
    node.receive(in, ndn::make_packet(std::move(interest)));
  }
  EXPECT_EQ(node.pit().size(), 50u);
  EXPECT_EQ(node.counters().pit_evictions, 0u);
}

// ---------------------------------------------------------------------------
// Scenario helpers
// ---------------------------------------------------------------------------

sim::ScenarioConfig small_tactic(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.topology.core_routers = 8;
  config.topology.edge_routers = 3;
  config.topology.providers = 2;
  config.topology.clients = 4;
  config.topology.attackers = 3;
  config.topology.core_cs_capacity = 200;
  config.provider.key_bits = 512;  // fast setup; semantics identical
  config.duration = 30 * kSecond;
  config.seed = seed;
  return config;
}

/// A forged-tag flood an order of magnitude above the legitimate tempo.
/// The short Interest lifetime matters: with the layer off, the edge
/// suppresses validity NACKs, so each forged Interest still pulls a
/// full NACK-carrying Data across the shared downstream links before the
/// attacker's window slot times out and refills — the congestion that
/// hurts bystander clients.
sim::ScenarioConfig flood_config(std::uint64_t seed) {
  sim::ScenarioConfig config = small_tactic(seed);
  config.attacker.think_time_mean = 100 * kMillisecond;
  config.attacker.window = 80;
  config.attacker.interest_lifetime = 50 * kMillisecond;
  config.attacker_mix = {workload::AttackerMode::kForgedTag};
  config.compute = core::ComputeModel::deterministic();
  // A tight metro backbone: the per-station access links stay at the
  // 10 Mbps default, but the shared router-to-router links are the
  // bottleneck the un-shed NACK flood saturates.
  config.topology.core_link.bits_per_second = 4e6;
  return config;
}

void enable_overload(sim::ScenarioConfig& config) {
  core::OverloadConfig& ov = config.tactic.overload;
  ov.enabled = true;
  ov.queue_capacity = 16;
  ov.shed_watermark = 2;
  ov.neg_cache_capacity = 512;
  ov.neg_cache_ttl = 5 * kSecond;
  ov.policer_rate = 40.0;
  ov.policer_burst = 10.0;
}

struct OverloadTotals {
  std::uint64_t sheds = 0;
  std::uint64_t neg_hits = 0;
  std::uint64_t neg_insertions = 0;
  std::uint64_t verifications = 0;
};

OverloadTotals totals_of(const sim::Metrics& metrics) {
  OverloadTotals t;
  for (const sim::RouterOps* ops : {&metrics.edge_ops, &metrics.core_ops}) {
    t.sheds += ops->sheds_queue_full + ops->sheds_unvouched +
               ops->policer_sheds;
    t.neg_hits += ops->neg_cache_hits;
    t.neg_insertions += ops->neg_cache_insertions;
    t.verifications += ops->sig_verifications;
  }
  t.verifications += metrics.provider_sig_verifications;
  return t;
}

// ---------------------------------------------------------------------------
// Client back-off ceiling
// ---------------------------------------------------------------------------

// Regression: an absurd backoff factor used to overflow the delay
// arithmetic after a couple of retries.  With the ceiling the client
// keeps retrying every ~retry_backoff_max instead, so an outage spanning
// several ceilings still resolves within the retry budget.
TEST(BackoffCeiling, ClampKeepsRetriesFlowing) {
  sim::ScenarioConfig config = small_tactic(7);
  config.topology.attackers = 0;
  config.duration = 20 * kSecond;
  config.client.max_retries = 10;
  config.client.retry_backoff_factor = 1e6;  // unclamped: overflows
  config.client.retry_backoff_max = 2 * kSecond;
  // Client 0's access link is dead for the first 12 seconds; only
  // repeated, ceiling-clamped retries carry its registration through.
  config.faults.flaps.push_back(
      {sim::LinkFlap::Where::kClientAccess, 0, 0, 12 * kSecond, false});

  sim::Scenario scenario(config);
  const sim::Metrics& metrics = scenario.run();

  // With the unclamped exponential the second retry would sit ~5.8 days
  // out; the run observing several retransmissions proves the ceiling.
  EXPECT_GE(metrics.clients.retransmissions +
                metrics.clients.registration_retransmissions,
            4u);
  EXPECT_GT(metrics.clients.tags_received, 0u);
  EXPECT_GT(metrics.clients.received, 0u);
}

// ---------------------------------------------------------------------------
// Attacker flood regression
// ---------------------------------------------------------------------------

TEST(OverloadLayer, FloodIsShedAndClientsProtected) {
  sim::ScenarioConfig off = flood_config(21);
  sim::ScenarioConfig on = off;
  enable_overload(on);

  const sim::Metrics with_layer = sim::Scenario(on).run();
  const sim::Metrics without = sim::Scenario(off).run();

  const OverloadTotals shed = totals_of(with_layer);
  const OverloadTotals open = totals_of(without);

  // The layer visibly worked: the policer and the watermark both shed
  // suspect traffic at the edge.
  EXPECT_GT(shed.sheds, 0u);
  EXPECT_GT(with_layer.edge_ops.policer_sheds, 0u);
  // Off means off: no shed/neg-cache activity whatsoever.
  EXPECT_EQ(open.sheds, 0u);
  EXPECT_EQ(open.neg_hits, 0u);
  EXPECT_EQ(open.neg_insertions, 0u);

  // The flood bought strictly less verifier work with the layer on: the
  // negative cache bounds repeats and the shed requests never queue.
  EXPECT_LT(shed.verifications, open.verifications);

  // Attackers stayed blocked either way.
  EXPECT_EQ(with_layer.attackers.received, 0u);
  EXPECT_EQ(without.attackers.received, 0u);

  // Valid clients come out strictly ahead under the flood with the
  // layer on (the shed flood no longer saturates the shared links).
  EXPECT_GT(with_layer.clients.delivery_ratio(),
            without.clients.delivery_ratio());
}

// With the policer off and watermarks out of the way, forged-tag repeats
// exercise the designed neg-cache pipeline: the first repeat per TTL
// window costs one upstream signature verification, the NACK-carrying
// Data teaches the edge on its way down, and every further repeat dies
// at the edge for the price of a cache probe.
TEST(OverloadLayer, NegativeCacheShortCircuitsRepeatedForgeries) {
  sim::ScenarioConfig off = small_tactic(26);
  off.attacker_mix = {workload::AttackerMode::kForgedTag};
  off.attacker.think_time_mean = 20 * kMillisecond;
  off.attacker.window = 4;
  off.compute = core::ComputeModel::deterministic();

  sim::ScenarioConfig on = off;
  core::OverloadConfig& ov = on.tactic.overload;
  ov.enabled = true;
  ov.queue_capacity = 512;
  ov.shed_watermark = 256;  // let the flood through to the verifiers
  ov.neg_cache_capacity = 512;
  ov.neg_cache_ttl = 5 * kSecond;
  ov.policer_rate = 0.0;

  const sim::Metrics cached = sim::Scenario(on).run();
  const sim::Metrics open = sim::Scenario(off).run();

  const OverloadTotals t = totals_of(cached);
  EXPECT_GT(t.neg_insertions, 0u);
  EXPECT_GT(t.neg_hits, 0u);
  // The edge specifically learned from the NACKed Data passing down and
  // then rejected repeats itself.
  EXPECT_GT(cached.edge_ops.neg_cache_insertions, 0u);
  EXPECT_GT(cached.edge_ops.neg_cache_hits, 0u);
  // A repeated forged tag now costs ~one verification per TTL window
  // instead of one per Interest.
  EXPECT_LT(t.verifications, totals_of(open).verifications);
  EXPECT_EQ(cached.attackers.received, 0u);
  EXPECT_EQ(open.attackers.received, 0u);
  // Legitimate clients are untouched by the cache.
  EXPECT_GT(cached.clients.delivery_ratio(), 0.95);
}

TEST(OverloadLayer, BoundedPitEvictsUnderFlood) {
  sim::ScenarioConfig config = flood_config(22);
  config.router_pit_capacity = 4;

  const sim::Metrics metrics = sim::Scenario(config).run();
  EXPECT_GT(metrics.pit_evictions, 0u);
  // Clients still make progress with a tiny PIT.
  EXPECT_GT(metrics.clients.received, 0u);
}

// ---------------------------------------------------------------------------
// Staged BF reset
// ---------------------------------------------------------------------------

// A small Bloom filter saturates repeatedly under tag churn.  Rotating
// with a drain window (staged reset) keeps vouching through the refill,
// so the instant-wipe variant pays strictly more signature verifications
// for the same traffic.
TEST(OverloadLayer, StagedResetSuppressesRevalidationSurge) {
  sim::ScenarioConfig base = small_tactic(23);
  base.duration = 40 * kSecond;
  base.topology.attackers = 0;
  base.topology.clients = 6;
  base.provider.tag_validity = 3 * kSecond;  // churn refills the BF fast
  base.tactic.bloom.capacity = 10;
  base.compute = core::ComputeModel::deterministic();
  enable_overload(base);
  // Isolate the reset policy: no shedding, no policing.
  base.tactic.overload.queue_capacity = 1u << 20;
  base.tactic.overload.shed_watermark = 1u << 20;
  base.tactic.overload.policer_rate = 0.0;

  sim::ScenarioConfig staged = base;
  staged.tactic.overload.staged_bf_reset = true;
  staged.tactic.overload.staged_reset_grace = 2 * kSecond;
  sim::ScenarioConfig instant = base;
  instant.tactic.overload.staged_bf_reset = false;

  const sim::Metrics with_drain = sim::Scenario(staged).run();
  const sim::Metrics wiped = sim::Scenario(instant).run();

  const std::uint64_t staged_rotations =
      with_drain.edge_ops.staged_resets + with_drain.core_ops.staged_resets;
  const std::uint64_t drain_hits =
      with_drain.edge_ops.draining_hits + with_drain.core_ops.draining_hits;
  ASSERT_GT(staged_rotations, 0u);  // the scenario actually saturated
  EXPECT_GT(drain_hits, 0u);        // and the old filter kept vouching
  EXPECT_EQ(wiped.edge_ops.staged_resets + wiped.core_ops.staged_resets,
            0u);

  // Same saturation pressure either way (resets still counted)...
  EXPECT_GT(wiped.edge_ops.bf_resets + wiped.core_ops.bf_resets, 0u);
  // ...but the instant wipe triggers the re-validation surge.
  EXPECT_LT(totals_of(with_drain).verifications,
            totals_of(wiped).verifications);
}

// ---------------------------------------------------------------------------
// Default-off identity and determinism
// ---------------------------------------------------------------------------

// Every knob set but `enabled` false must leave the run bit-identical to
// a configuration that never mentions the overload layer.
TEST(OverloadLayer, DisabledLayerIsBitIdentical) {
  const sim::ScenarioConfig plain = small_tactic(24);
  sim::ScenarioConfig knobs = plain;
  knobs.tactic.overload.enabled = false;
  knobs.tactic.overload.queue_capacity = 3;
  knobs.tactic.overload.shed_watermark = 1;
  knobs.tactic.overload.neg_cache_capacity = 7;
  knobs.tactic.overload.neg_cache_ttl = kSecond;
  knobs.tactic.overload.policer_rate = 50.0;
  knobs.tactic.overload.policer_burst = 1.0;
  knobs.tactic.overload.staged_bf_reset = true;
  knobs.tactic.overload.staged_reset_grace = 10 * kSecond;

  const sim::Metrics a = sim::Scenario(plain).run();
  const sim::Metrics b = sim::Scenario(knobs).run();
  EXPECT_EQ(testing::fingerprint(a), testing::fingerprint(b));
  const OverloadTotals t = totals_of(b);
  EXPECT_EQ(t.sheds, 0u);
  EXPECT_EQ(t.neg_hits, 0u);
  EXPECT_EQ(b.clients.overload_nacks, 0u);
}

// Same seed + overload + faults => identical fingerprint and trace chain,
// with the runtime invariants clean — on single-lane routers and on
// 4-lane routers (the multi-lane stealing path end to end).
TEST(OverloadLayer, DoubleRunDeterminismWithFloodAndFaults) {
  sim::ScenarioConfig config = flood_config(25);
  config.duration = 20 * kSecond;
  enable_overload(config);
  config.router_pit_capacity = 256;
  config.faults.edge_links.loss = 0.02;
  config.faults.crashes.push_back(
      {sim::CrashEvent::Target::kEdgeRouter, 0, 8 * kSecond, kSecond});

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
  for (const std::size_t lanes : {1u, 4u}) {
    SCOPED_TRACE("validation lanes: " + std::to_string(lanes));
    config.tactic.validation_lanes = lanes;
    const auto first = run();
    const auto second = run();
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, second.second);
  }
}

}  // namespace
}  // namespace tactic
