// Tests for the implemented future-work extensions: client mobility
// ("test our mechanism ... under nodes mobility") and traitor tracing
// ("preventing the clients from sharing their tags with unauthorized
// users"), plus the TraitorTracer unit behaviour.

#include <gtest/gtest.h>

#include "sim/scenario.hpp"
#include "tactic/access_path.hpp"
#include "tactic/traitor_tracing.hpp"

namespace tactic::sim {
namespace {

using event::kSecond;

// ---------------------------------------------------------------------------
// TraitorTracer unit behaviour
// ---------------------------------------------------------------------------

TEST(TraitorTracer, FlagsAfterThreshold) {
  std::vector<std::string> revoked;
  core::TraitorTracer tracer({3}, [&](const std::string& locator) {
    revoked.push_back(locator);
  });
  tracer.report("/alice/KEY/1", 1, 2, 0);
  tracer.report("/alice/KEY/1", 1, 2, 0);
  EXPECT_FALSE(tracer.is_flagged("/alice/KEY/1"));
  EXPECT_TRUE(revoked.empty());
  tracer.report("/alice/KEY/1", 1, 2, 0);
  EXPECT_TRUE(tracer.is_flagged("/alice/KEY/1"));
  ASSERT_EQ(revoked.size(), 1u);
  EXPECT_EQ(revoked[0], "/alice/KEY/1");
}

TEST(TraitorTracer, RevokesOnlyOnce) {
  int revocations = 0;
  core::TraitorTracer tracer({2}, [&](const std::string&) { ++revocations; });
  for (int i = 0; i < 10; ++i) tracer.report("/a/KEY/1", 1, 2, 0);
  EXPECT_EQ(revocations, 1);
  EXPECT_EQ(tracer.reports_received(), 10u);
}

TEST(TraitorTracer, TracksClientsIndependently) {
  core::TraitorTracer tracer({3}, nullptr);
  tracer.report("/a/KEY/1", 1, 2, 0);
  tracer.report("/b/KEY/1", 1, 2, 0);
  tracer.report("/a/KEY/1", 1, 2, 0);
  EXPECT_EQ(tracer.report_count("/a/KEY/1"), 2u);
  EXPECT_EQ(tracer.report_count("/b/KEY/1"), 1u);
  EXPECT_EQ(tracer.report_count("/nobody/KEY/1"), 0u);
  EXPECT_TRUE(tracer.flagged().empty());
}

TEST(TraitorTracer, WorksWithoutRevokeCallback) {
  core::TraitorTracer tracer({1}, nullptr);
  tracer.report("/a/KEY/1", 1, 2, 0);
  EXPECT_TRUE(tracer.is_flagged("/a/KEY/1"));
}

// ---------------------------------------------------------------------------
// Mobility
// ---------------------------------------------------------------------------

ScenarioConfig mobility_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.topology.core_routers = 12;
  config.topology.edge_routers = 4;
  config.topology.aps_per_edge = 2;
  config.topology.providers = 2;
  config.topology.clients = 5;
  config.topology.attackers = 0;
  config.provider.key_bits = 512;
  config.provider.catalog.objects = 10;
  config.provider.catalog.chunks_per_object = 10;
  config.client.think_time_mean = 20 * event::kMillisecond;
  config.compute = core::ComputeModel::zero();
  config.tactic.enforce_access_path = true;
  config.duration = 40 * kSecond;
  config.seed = seed;
  return config;
}

TEST(Mobility, MovedClientReregistersAndKeepsStreaming) {
  ScenarioConfig config = mobility_config(71);
  Scenario scenario(config);

  const net::NodeId mover_node = scenario.network().clients()[0];
  workload::ClientApp& mover = *scenario.clients()[0];
  const std::size_t old_ap = scenario.network().ap_index_of(mover_node);
  const std::size_t new_ap =
      (old_ap + 1) % scenario.network().access_points().size();

  // Move halfway through; count deliveries before and after.
  std::uint64_t before_move = 0;
  scenario.scheduler().schedule(20 * kSecond, [&] {
    before_move = mover.counters().chunks_received;
    scenario.move_user(mover_node, new_ap);
  });

  const Metrics& metrics = scenario.run();
  (void)metrics;

  EXPECT_EQ(scenario.network().ap_index_of(mover_node), new_ap);
  // Streaming resumed at the new location...
  EXPECT_GT(mover.counters().chunks_received, before_move + 50);
  // ...because the client re-registered after the access-path NACK.
  EXPECT_GT(mover.counters().nacks_received, 0u);
  // The refreshed tag is bound to the new AP.
  const core::TagPtr tag0 = mover.current_tag(0);
  const core::TagPtr tag1 = mover.current_tag(1);
  const std::uint64_t new_ap_hash = core::entity_id_hash(
      scenario.network().access_points()[new_ap].label);
  ASSERT_TRUE(tag0 || tag1);
  if (tag0) {
    EXPECT_EQ(tag0->access_path(), new_ap_hash);
  }
  if (tag1) {
    EXPECT_EQ(tag1->access_path(), new_ap_hash);
  }
}

TEST(Mobility, MoveAcrossEdgeRoutersWorks) {
  ScenarioConfig config = mobility_config(72);
  Scenario scenario(config);
  const net::NodeId mover_node = scenario.network().clients()[0];
  workload::ClientApp& mover = *scenario.clients()[0];

  // Find an AP under a *different* edge router.
  const net::NodeId old_edge = scenario.network().edge_router_of(mover_node);
  std::size_t target_ap = ~std::size_t{0};
  for (std::size_t i = 0;
       i < scenario.network().access_points().size(); ++i) {
    if (scenario.network().access_points()[i].edge_router != old_edge) {
      target_ap = i;
      break;
    }
  }
  ASSERT_NE(target_ap, ~std::size_t{0});

  std::uint64_t before_move = 0;
  scenario.scheduler().schedule(20 * kSecond, [&] {
    before_move = mover.counters().chunks_received;
    scenario.move_user(mover_node, target_ap);
  });
  scenario.run();

  EXPECT_NE(scenario.network().edge_router_of(mover_node), old_edge);
  EXPECT_GT(mover.counters().chunks_received, before_move + 50);
}

TEST(Mobility, WithoutApEnforcementMoveIsSeamless) {
  ScenarioConfig config = mobility_config(73);
  config.tactic.enforce_access_path = false;  // paper-parity setting
  Scenario scenario(config);
  const net::NodeId mover_node = scenario.network().clients()[0];
  workload::ClientApp& mover = *scenario.clients()[0];
  const std::size_t new_ap =
      (scenario.network().ap_index_of(mover_node) + 1) %
      scenario.network().access_points().size();
  scenario.scheduler().schedule(20 * kSecond,
                                [&] { scenario.move_user(mover_node, new_ap); });
  const Metrics& metrics = scenario.run();
  // No location binding -> old tags keep working; no extra NACK churn.
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.98);
  EXPECT_EQ(mover.counters().nacks_received, 0u);
}

// ---------------------------------------------------------------------------
// Traitor tracing, end to end
// ---------------------------------------------------------------------------

TEST(TraitorTracingE2E, SharingClientGetsFlaggedAndRevoked) {
  ScenarioConfig config = mobility_config(74);
  config.topology.attackers = 2;
  config.attacker_mix = {workload::AttackerMode::kSharedTag};
  config.attacker.think_time_mean = 200 * event::kMillisecond;
  config.enable_traitor_tracing = true;
  config.traitor_tracing.report_threshold = 10;
  Scenario scenario(config);
  const Metrics& metrics = scenario.run();

  // The shared tags were rejected (AP mismatch) ...
  EXPECT_EQ(metrics.attackers.received, 0u);
  // ... reported to the tracer ...
  ASSERT_NE(scenario.traitor_tracer(), nullptr);
  EXPECT_GE(scenario.traitor_tracer()->reports_received(), 10u);
  // ... and at least one tag-owner was flagged and revoked everywhere.
  ASSERT_FALSE(scenario.traitor_tracer()->flagged().empty());
  const std::string& traitor = scenario.traitor_tracer()->flagged().front();
  for (auto& provider : scenario.providers()) {
    EXPECT_TRUE(provider->issuer().is_revoked(traitor));
  }
}

TEST(TraitorTracingE2E, HonestMobileClientNotFlagged) {
  ScenarioConfig config = mobility_config(75);
  config.enable_traitor_tracing = true;
  // Threshold comfortably above one request window (5).
  config.traitor_tracing.report_threshold = 10;
  Scenario scenario(config);

  const net::NodeId mover_node = scenario.network().clients()[0];
  workload::ClientApp& mover = *scenario.clients()[0];
  const std::size_t new_ap =
      (scenario.network().ap_index_of(mover_node) + 1) %
      scenario.network().access_points().size();
  scenario.scheduler().schedule(20 * kSecond,
                                [&] { scenario.move_user(mover_node, new_ap); });
  scenario.run();

  // The move produced a few mismatch reports but stayed under threshold:
  // the honest client is not punished.
  const std::string locator =
      workload::ProviderApp::client_key_locator(mover.label());
  EXPECT_FALSE(scenario.traitor_tracer()->is_flagged(locator));
  for (auto& provider : scenario.providers()) {
    EXPECT_FALSE(provider->issuer().is_revoked(locator));
  }
  EXPECT_GT(mover.counters().chunks_received, 100u);
}

TEST(TraitorTracingE2E, DisabledByDefault) {
  ScenarioConfig config = mobility_config(76);
  Scenario scenario(config);
  EXPECT_EQ(scenario.traitor_tracer(), nullptr);
}

// ---------------------------------------------------------------------------
// Eager revocation (extension): blacklist pushes vs TACTIC's tag expiry
// ---------------------------------------------------------------------------

TEST(EagerRevocation, BlacklistKillsOutstandingTagImmediately) {
  ScenarioConfig config = mobility_config(91);
  config.tactic.enforce_access_path = false;
  config.provider.tag_validity = 1000 * kSecond;  // expiry would be slow
  Scenario scenario(config);

  workload::ClientApp& victim = *scenario.clients()[0];
  const std::string locator =
      workload::ProviderApp::client_key_locator(victim.label());
  const event::Time cut_at = 20 * kSecond;
  std::uint64_t after_cut = 0;
  victim.on_latency_sample = [&](event::Time when, double) {
    if (when > cut_at + kSecond) ++after_cut;
  };
  scenario.scheduler().schedule(
      cut_at, [&] { scenario.revoke_client_eagerly(locator); });
  scenario.run();

  // Despite ~1000 s of residual tag lifetime, the victim got (almost)
  // nothing after the push (in-flight data within 1 s is tolerated).
  EXPECT_EQ(after_cut, 0u);
  EXPECT_GT(victim.counters().chunks_received, 100u);  // it worked before
  // The push paid one message per router.
  const std::size_t routers =
      scenario.network().edge_routers().size() +
      scenario.network().core_routers().size();
  EXPECT_GE(scenario.anchors().revocations.push_messages, routers);
  // Edge routers saw and rejected the blacklisted tag.
  std::uint64_t rejections = 0;
  for (const net::NodeId id : scenario.network().edge_routers()) {
    const auto* policy = dynamic_cast<const core::TacticRouterPolicy*>(
        &scenario.network().node(id).policy());
    ASSERT_NE(policy, nullptr);
    rejections += policy->counters().blacklist_rejections;
  }
  EXPECT_GT(rejections, 0u);
}

TEST(EagerRevocation, OtherClientsUnaffected) {
  ScenarioConfig config = mobility_config(92);
  config.tactic.enforce_access_path = false;
  Scenario scenario(config);
  const std::string locator = workload::ProviderApp::client_key_locator(
      scenario.clients()[0]->label());
  scenario.scheduler().schedule(10 * kSecond, [&] {
    scenario.revoke_client_eagerly(locator);
  });
  const Metrics& metrics = scenario.run();
  EXPECT_GT(scenario.clients()[1]->counters().chunks_received, 100u);
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.9);
}

TEST(EagerRevocation, EmptyBlacklistIsFree) {
  core::RevocationBlacklist blacklist;
  EXPECT_TRUE(blacklist.empty());
  EXPECT_EQ(blacklist.push_messages, 0u);
}

// ---------------------------------------------------------------------------
// Content signatures (paper Section 6.B: fake content from a malicious
// prefix-hijacking provider is detected by client-side verification)
// ---------------------------------------------------------------------------

TEST(ContentSignatures, SignedContentVerifiesEndToEnd) {
  ScenarioConfig config = mobility_config(77);
  config.provider.sign_content = true;
  config.client.verify_content = true;
  Scenario scenario(config);
  const Metrics& metrics = scenario.run();
  // Everything delivered carries a genuine provider signature.
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.98);
  std::uint64_t failures = 0;
  for (auto& client : scenario.clients()) {
    failures += client->counters().content_verification_failures;
  }
  EXPECT_EQ(failures, 0u);
}

TEST(ContentSignatures, PrefixHijackDetectedByClients) {
  // A malicious producer hijacks /provider0 at one client's edge router
  // (the paper's misrouted-FIB scenario) and answers with unsigned fake
  // content.  The verifying client detects and drops every fake chunk.
  ScenarioConfig config = mobility_config(78);
  config.tactic.enforce_access_path = false;
  config.provider.sign_content = true;
  config.client.verify_content = true;
  // Public catalog isolates content authenticity from access control: a
  // prefix hijack also swallows registration Interests, so tag-gated
  // content would simply never be requested.
  config.provider.catalog.public_fraction = 1.0;
  Scenario scenario(config);

  // Hijack: a rogue node adjacent to the victim's edge router claims
  // /provider0 with a cheaper route.
  topology::Network& net = scenario.network();
  const net::NodeId victim_node = net.clients()[0];
  const net::NodeId victim_edge = net.edge_router_of(victim_node);
  const net::NodeId rogue =
      net.add_node(net::NodeKind::kProvider, "rogue", 0);
  net.connect(rogue, victim_edge, net::core_link_params());
  int fakes_served = 0;
  const ndn::FaceId rogue_app = net.node(rogue).add_app_face(ndn::AppSink{
      [&](ndn::FaceId face, const ndn::Interest& interest) {
        ++fakes_served;
        ndn::Data fake;
        fake.name = interest.name;
        fake.content_size = 1024;
        fake.access_level = ndn::kPublicAccessLevel;  // skip tag checks
        fake.provider_key_locator = "/provider0/KEY/1";  // impersonation
        fake.tag = interest.tag;
        fake.tag_wire_size = interest.tag_wire_size;
        net.node(rogue).inject_from_app(face, std::move(fake));
      },
      nullptr, nullptr});
  net.node(rogue).fib().add_route(ndn::Name("/provider0"), rogue_app);
  // Poison the victim edge's FIB: the rogue is "closer" than the origin.
  net.node(victim_edge)
      .fib()
      .set_routes(ndn::Name("/provider0"),
                  {{net.face_between(victim_edge, rogue), 0}});

  const Metrics& metrics = scenario.run();
  (void)metrics;

  EXPECT_GT(fakes_served, 0);  // the hijack was exercised
  std::uint64_t failures = 0;
  for (auto& client : scenario.clients()) {
    failures += client->counters().content_verification_failures;
  }
  // Every fake chunk that reached a client was detected and dropped.
  EXPECT_GT(failures, 0u);
}

}  // namespace
}  // namespace tactic::sim
