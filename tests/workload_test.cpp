// Tests for the workload layer: catalog naming/AL/encryption, the
// provider app (registration, serving, revocation), the request loop
// users share, the Zipf-window client, and attacker strategies — each
// over a minimal live network.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "event/scheduler.hpp"
#include "ndn/forwarder.hpp"
#include "sim/scenario.hpp"
#include "tactic/access_path.hpp"
#include "tactic/registration.hpp"
#include "topology/network.hpp"
#include "workload/attacker_app.hpp"
#include "crypto/sha256.hpp"
#include "workload/catalog.hpp"
#include "workload/client_app.hpp"
#include "workload/provider_app.hpp"
#include "workload/user_app.hpp"

namespace tactic::workload {
namespace {

using event::kSecond;

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

CatalogParams small_catalog() {
  CatalogParams params;
  params.objects = 10;
  params.chunks_per_object = 5;
  params.chunk_size = 256;
  return params;
}

TEST(Catalog, NamesRoundTrip) {
  util::Rng rng(1);
  Catalog catalog(ndn::Name("/provider3"), small_catalog(), rng);
  const ndn::Name name = catalog.chunk_name(7, 3);
  EXPECT_EQ(name.to_uri(), "/provider3/obj7/c3");
  const auto parsed = catalog.parse(name);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, 7u);
  EXPECT_EQ(parsed->second, 3u);
}

TEST(Catalog, ParseRejectsForeignAndMalformed) {
  util::Rng rng(2);
  Catalog catalog(ndn::Name("/provider3"), small_catalog(), rng);
  EXPECT_FALSE(catalog.parse(ndn::Name("/other/obj1/c1")).has_value());
  EXPECT_FALSE(catalog.parse(ndn::Name("/provider3/obj1")).has_value());
  EXPECT_FALSE(catalog.parse(ndn::Name("/provider3/objX/c1")).has_value());
  EXPECT_FALSE(catalog.parse(ndn::Name("/provider3/obj99/c1")).has_value());
  EXPECT_FALSE(catalog.parse(ndn::Name("/provider3/obj1/c99")).has_value());
  EXPECT_FALSE(
      catalog.parse(ndn::Name("/provider3/register/u/1")).has_value());
}

TEST(Catalog, AccessLevelTiers) {
  util::Rng rng(3);
  CatalogParams params = small_catalog();
  params.public_fraction = 0.2;   // 2 public objects
  params.high_al_fraction = 0.3;  // 3 high-AL objects at the tail
  Catalog catalog(ndn::Name("/p"), params, rng);
  EXPECT_EQ(catalog.access_level(0), 0u);
  EXPECT_EQ(catalog.access_level(1), 0u);
  EXPECT_EQ(catalog.access_level(2), params.base_access_level);
  EXPECT_EQ(catalog.access_level(9), params.base_access_level + 1);
  EXPECT_EQ(catalog.access_level(7), params.base_access_level + 1);
}

TEST(Catalog, PlaintextDeterministicAndSized) {
  util::Rng rng(4);
  Catalog catalog(ndn::Name("/p"), small_catalog(), rng);
  const util::Bytes a = catalog.chunk_plaintext(1, 2);
  EXPECT_EQ(a.size(), 256u);
  EXPECT_EQ(a, catalog.chunk_plaintext(1, 2));
  EXPECT_NE(a, catalog.chunk_plaintext(1, 3));
}

TEST(Catalog, CiphertextDecryptsWithContentKey) {
  util::Rng rng(5);
  Catalog catalog(ndn::Name("/p"), small_catalog(), rng);
  const util::Bytes ct = catalog.chunk_ciphertext(2, 4);
  EXPECT_NE(ct, catalog.chunk_plaintext(2, 4));
  const std::uint64_t nonce =
      crypto::sha256_prefix64(catalog.chunk_name(2, 4).to_uri());
  EXPECT_EQ(crypto::aes128_ctr(catalog.content_key(), nonce, ct),
            catalog.chunk_plaintext(2, 4));
}

TEST(Catalog, EmptyCatalogThrows) {
  util::Rng rng(6);
  CatalogParams params;
  params.objects = 0;
  EXPECT_THROW(Catalog(ndn::Name("/p"), params, rng),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Apps over a tiny scenario
// ---------------------------------------------------------------------------

sim::ScenarioConfig tiny_config(std::uint64_t seed = 5) {
  sim::ScenarioConfig config;
  config.topology.core_routers = 8;
  config.topology.edge_routers = 3;
  config.topology.providers = 2;
  config.topology.clients = 4;
  config.topology.attackers = 2;
  config.provider.catalog.objects = 10;
  config.provider.catalog.chunks_per_object = 5;
  config.provider.key_bits = 512;
  config.client.think_time_mean = 20 * event::kMillisecond;
  config.attacker.think_time_mean = 200 * event::kMillisecond;
  config.compute = core::ComputeModel::zero();
  config.duration = 25 * kSecond;
  config.seed = seed;
  return config;
}

TEST(ProviderApp, RegistersKeyAndProtectedPrefix) {
  sim::ScenarioConfig config = tiny_config();
  sim::Scenario scenario(config);
  EXPECT_EQ(scenario.anchors().pki.size(), 2u);
  EXPECT_TRUE(scenario.anchors().protected_prefixes.count("/provider0"));
  EXPECT_TRUE(scenario.anchors().protected_prefixes.count("/provider1"));
  EXPECT_EQ(scenario.providers()[0]->prefix().to_uri(), "/provider0");
  EXPECT_EQ(scenario.providers()[0]->key_locator(), "/provider0/KEY/1");
}

TEST(ProviderApp, FullyPublicCatalogIsNotProtected) {
  sim::ScenarioConfig config = tiny_config();
  config.provider.catalog.public_fraction = 1.0;
  sim::Scenario scenario(config);
  EXPECT_TRUE(scenario.anchors().protected_prefixes.empty());
}

TEST(ProviderApp, RegistrationNamesFollowTheSharedConvention) {
  sim::Scenario scenario(tiny_config());
  const ProviderApp& provider = *scenario.providers()[0];
  const ndn::Name registration = provider.registration_name("client0", 7);
  EXPECT_EQ(registration.to_uri(), "/provider0/register/client0/7");
  EXPECT_TRUE(core::is_registration_name(registration));
  EXPECT_FALSE(
      core::is_registration_name(provider.catalog().chunk_name(0, 0)));
  EXPECT_FALSE(core::is_registration_name(provider.prefix()));
}

TEST(ProviderApp, IssuesTagsToEnrolledClients) {
  sim::ScenarioConfig config = tiny_config();
  sim::Scenario scenario(config);
  scenario.run();
  std::uint64_t issued = 0;
  for (auto& provider : scenario.providers()) {
    issued += provider->counters().tags_issued;
  }
  EXPECT_GT(issued, 0u);
}

TEST(ClientApp, StreamsChunksAndRefreshesTags) {
  sim::ScenarioConfig config = tiny_config();
  sim::Scenario scenario(config);
  const auto& metrics = scenario.run();
  EXPECT_GT(metrics.clients.requested, 100u);
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.95);
  // Tag validity 10 s over a 25 s run: every client re-registered.
  EXPECT_GE(metrics.clients.tags_requested,
            scenario.clients().size() * 2);
  EXPECT_EQ(metrics.clients.tags_received, metrics.clients.tags_requested);
}

TEST(ClientApp, WindowBoundsOutstandingRequests) {
  sim::ScenarioConfig config = tiny_config();
  config.client.window = 2;
  config.client.think_time_mean = 0;
  sim::Scenario scenario(config);
  const auto& metrics = scenario.run();
  // With a window of 2 and zero think time the client is RTT-bound; it
  // must still deliver nearly everything it asked for.
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.95);
}

TEST(ClientApp, RevokedClientStopsGettingTags) {
  sim::ScenarioConfig config = tiny_config();
  sim::Scenario scenario(config);
  // Revoke client 0 everywhere before the run starts.
  const std::string locator = workload::ProviderApp::client_key_locator(
      scenario.clients()[0]->label());
  for (auto& provider : scenario.providers()) {
    provider->issuer().revoke(locator);
  }
  scenario.run();
  EXPECT_EQ(scenario.clients()[0]->counters().tags_received, 0u);
  EXPECT_EQ(scenario.clients()[0]->counters().chunks_received, 0u);
  // Other clients are unaffected.
  EXPECT_GT(scenario.clients()[1]->counters().chunks_received, 0u);
}

TEST(ClientApp, LatencySamplesFeedTimeSeries) {
  sim::ScenarioConfig config = tiny_config();
  sim::Scenario scenario(config);
  const auto& metrics = scenario.run();
  EXPECT_GT(metrics.latency.total_count(), 0u);
  EXPECT_GT(metrics.mean_latency(), 0.0);
  EXPECT_LT(metrics.mean_latency(), 1.0);
}

TEST(ClientApp, AnsweredRequestsCancelNoTimer) {
  // Each app keeps one wakeup at or before its earliest deadline, so an
  // answer cancels nothing: what is left are registration timeouts and
  // wakeups moved earlier by an overload backoff or a new deadline.
  sim::Scenario scenario(tiny_config());
  const auto& metrics = scenario.run();
  const std::uint64_t requests =
      metrics.clients.requested + metrics.attackers.requested;
  EXPECT_GT(requests, 1000u);
  EXPECT_LT(scenario.scheduler().cancelled_count() * 100, requests);
}

// ---------------------------------------------------------------------------
// Against a producer the test controls: one client on a bare node whose
// FIB sends every Interest to a test face.  The node's policy delays
// each Data by 300 ms, so a Data the producer sends just before the
// Interest times out reaches the client during the retransmission
// backoff (timeout at 1 s, backoff 500 ms, jitter off).
// ---------------------------------------------------------------------------

class SlowDataPolicy : public ndn::AccessControlPolicy {
 public:
  event::Time on_data(ndn::Forwarder&, ndn::FaceId, const ndn::Data&) override {
    return 300 * event::kMillisecond;
  }
};

struct ControlledProducer {
  ControlledProducer() {
    ProviderConfig provider_config;
    provider_config.catalog = small_catalog();
    provider_config.catalog.public_fraction = 1.0;  // no registration
    provider_config.key_bits = 512;
    provider = std::make_unique<ProviderApp>(
        catalog_node, "/provider0", provider_config, anchors, util::Rng(3));
    node.set_policy(std::make_unique<SlowDataPolicy>());
    producer_face = node.add_app_face(ndn::AppSink{
        [this](ndn::FaceId, const ndn::Interest& interest) {
          interests.push_back({sched.now(), interest.name});
        },
        nullptr, nullptr});
    node.fib().add_route(ndn::Name("/"), producer_face);

    ClientConfig config;
    config.window = 1;
    config.max_chunks = 1;
    config.think_time_mean = 0;
    config.start_jitter = 0;
    config.retry_backoff_base = 500 * event::kMillisecond;
    config.retry_jitter = 0.0;
    const std::vector<ProviderApp*> providers{provider.get()};
    client = std::make_unique<ClientApp>(
        node, providers, config,
        popularity_law(providers, config.zipf_alpha), util::Rng(4));
    client->start();
  }

  /// Sends `data` for the first Interest's name at `when`.
  void answer_at(event::Time when, ndn::Data data) {
    sched.schedule_at(when, [this, data = std::move(data)]() mutable {
      data.name = interests.front().second;
      node.inject_from_app(producer_face, std::move(data));
    });
  }

  event::Scheduler sched;
  core::TrustAnchors anchors;
  ndn::Forwarder catalog_node{
      sched, net::NodeInfo{0, net::NodeKind::kProvider, "provider0"}, 0};
  ndn::Forwarder node{
      sched, net::NodeInfo{1, net::NodeKind::kClient, "client0"}, 0};
  std::unique_ptr<ProviderApp> provider;
  ndn::FaceId producer_face = ndn::kInvalidFace;
  std::vector<std::pair<event::Time, ndn::Name>> interests;
  std::unique_ptr<ClientApp> client;
};

TEST(ClientApp, DataDuringBackoffEndsTheRequest) {
  ControlledProducer net;
  net.answer_at(kSecond - 1, ndn::Data{});
  net.sched.run_until(3 * kSecond);
  ASSERT_EQ(net.interests.size(), 1u);  // no resend at 1.5 s
  const UserCounters& counters = net.client->counters();
  EXPECT_EQ(counters.timeouts, 1u);
  EXPECT_EQ(counters.chunks_received, 1u);
  EXPECT_EQ(counters.retransmissions, 0u);
  EXPECT_EQ(counters.chunks_requested, 1u);
}

TEST(ClientApp, OverloadNackDuringBackoffRestartsIt) {
  ControlledProducer net;
  ndn::Data shed;
  shed.nack_attached = true;
  shed.nack_reason = ndn::NackReason::kRouterOverloaded;
  net.answer_at(kSecond - 1, std::move(shed));
  net.sched.run_until(3 * kSecond);
  // The NACK lands at 1.3 s - 1 ns, inside the first backoff, and starts
  // the second (1 s): one resend at 2.3 s - 1 ns, none at 1.5 s.
  ASSERT_EQ(net.interests.size(), 2u);
  EXPECT_EQ(net.interests[1].first, 2300 * event::kMillisecond - 1);
  const UserCounters& counters = net.client->counters();
  EXPECT_EQ(counters.timeouts, 1u);
  EXPECT_EQ(counters.overload_nacks, 1u);
  EXPECT_EQ(counters.retransmissions, 1u);
  EXPECT_EQ(counters.chunks_requested, 2u);
}

// ---------------------------------------------------------------------------
// The request loop's deadlines, through a probe app on a bare node: the
// test starts, arms and ends requests by name and the probe logs each
// deadline the loop hands back as "name@ms".
// ---------------------------------------------------------------------------

class ProbeApp : public UserApp {
 public:
  explicit ProbeApp(ndn::Forwarder& node)
      : UserApp(node, {}, UserConfig{}, popularity_law({}, 0.7),
                util::Rng(1)) {}

  void add(const std::string& uri) { track(ndn::Name(uri)); }
  void arm(const std::string& uri, event::Time deadline) {
    UserApp::arm(*find(ndn::Name(uri)), deadline);
  }
  void end(const std::string& uri) { UserApp::end(*find(ndn::Name(uri))); }

  std::vector<std::string> log;
  std::function<void(const std::string&)> on_due;

 private:
  void request_next() override {}
  void on_deadline(Request& request) override {
    const std::string uri = request.name.to_uri();
    log.push_back(uri + "@" +
                  std::to_string(node_.scheduler().now() /
                                 event::kMillisecond));
    if (on_due) on_due(uri);
  }
};

struct ProbeNode {
  event::Scheduler sched;
  ndn::Forwarder node{
      sched, net::NodeInfo{0, net::NodeKind::kClient, "probe"}, 0};
  ProbeApp app{node};
};

TEST(UserApp, SameInstantDeadlinesRunInArmingOrder) {
  ProbeNode probe;
  probe.app.add("/a");
  probe.app.add("/b");
  probe.app.end("/a");
  probe.app.add("/c");  // reuses /a's slot, ahead of /b's
  probe.app.arm("/b", kSecond);
  probe.app.arm("/c", kSecond);
  probe.sched.run();
  EXPECT_EQ(probe.app.log, (std::vector<std::string>{"/b@1000", "/c@1000"}));
}

TEST(UserApp, EndedRequestNeverFiresAndTheNextFiresOnTime) {
  ProbeNode probe;
  probe.app.add("/a");
  probe.app.add("/b");
  probe.app.arm("/a", kSecond);
  probe.app.arm("/b", 2 * kSecond);
  probe.sched.schedule(kSecond / 2, [&] { probe.app.end("/a"); });
  probe.sched.run();
  EXPECT_EQ(probe.app.log, (std::vector<std::string>{"/b@2000"}));
  EXPECT_EQ(probe.sched.cancelled_count(), 0u);
}

TEST(UserApp, EarlierDeadlineMovesTheWakeup) {
  ProbeNode probe;
  probe.app.add("/a");
  probe.app.add("/b");
  probe.app.arm("/a", 2 * kSecond);
  probe.sched.run_until(kSecond / 2);
  probe.app.arm("/b", kSecond);
  probe.app.arm("/a", 3 * kSecond);  // later: the wakeup stays put
  probe.sched.run();
  EXPECT_EQ(probe.app.log, (std::vector<std::string>{"/b@1000", "/a@3000"}));
  EXPECT_EQ(probe.sched.cancelled_count(), 1u);
}

TEST(UserApp, DeadlineArmedForNowInTheHandlerRunsInALaterEvent) {
  ProbeNode probe;
  probe.app.add("/a");
  probe.app.add("/b");
  probe.app.arm("/a", kSecond);
  probe.app.on_due = [&](const std::string& uri) {
    if (uri != "/a") return;
    probe.sched.schedule(0, [&] { probe.app.log.push_back("marker"); });
    probe.app.arm("/b", probe.sched.now());
  };
  probe.sched.run();
  EXPECT_EQ(probe.app.log,
            (std::vector<std::string>{"/a@1000", "marker", "/b@1000"}));
}

TEST(AttackerModes, NamesAreStable) {
  EXPECT_STREQ(to_string(AttackerMode::kNoTag), "no-tag");
  EXPECT_STREQ(to_string(AttackerMode::kForgedTag), "forged-tag");
  EXPECT_STREQ(to_string(AttackerMode::kExpiredTag), "expired-tag");
  EXPECT_STREQ(to_string(AttackerMode::kSharedTag), "shared-tag");
}

class AttackerModeSweep
    : public ::testing::TestWithParam<AttackerMode> {};

TEST_P(AttackerModeSweep, SingleModeNeverRetrievesContent) {
  sim::ScenarioConfig config = tiny_config(17);
  config.attacker_mix = {GetParam()};
  config.attacker.think_time_mean = 100 * event::kMillisecond;
  sim::Scenario scenario(config);
  const auto& metrics = scenario.run();
  EXPECT_GT(metrics.attackers.requested, 10u);
  EXPECT_EQ(metrics.attackers.received, 0u)
      << "mode " << to_string(GetParam());
  // Clients keep working in the presence of the attack.
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Threats, AttackerModeSweep,
    ::testing::Values(AttackerMode::kNoTag, AttackerMode::kForgedTag,
                      AttackerMode::kExpiredTag,
                      AttackerMode::kInsufficientAccessLevel,
                      AttackerMode::kWrongProvider));

TEST(AttackerApp, SharedTagSucceedsWithoutApEnforcement) {
  // Threat (e) with the access-path feature OFF (the paper's simulation
  // setting): a shared, genuinely valid tag retrieves content.
  sim::ScenarioConfig config = tiny_config(19);
  config.attacker_mix = {AttackerMode::kSharedTag};
  config.attacker.think_time_mean = 100 * event::kMillisecond;
  config.tactic.enforce_access_path = false;
  sim::Scenario scenario(config);
  const auto& metrics = scenario.run();
  EXPECT_GT(metrics.attackers.received, 0u);
}

TEST(AttackerApp, SharedTagBlockedByApEnforcement) {
  // Our implementation of the paper's future-work feature closes it.
  sim::ScenarioConfig config = tiny_config(19);
  config.attacker_mix = {AttackerMode::kSharedTag};
  config.attacker.think_time_mean = 100 * event::kMillisecond;
  config.tactic.enforce_access_path = true;
  sim::Scenario scenario(config);
  const auto& metrics = scenario.run();
  EXPECT_EQ(metrics.attackers.received, 0u);
  // Clients are location-consistent, so enforcement does not hurt them.
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.95);
}

TEST(ProviderApp, RealKeyEncryptionWhenClientKeysKnown) {
  // End-to-end confidentiality machinery: a provider encrypts its content
  // key under a real client RSA key.
  util::Rng rng(23);
  const crypto::RsaKeyPair client_keys =
      crypto::generate_rsa_keypair(rng, 512);

  event::Scheduler sched;
  topology::Network net = topology::Network::empty(sched);
  const net::NodeId p =
      net.add_node(net::NodeKind::kProvider, "provider0", 0);
  core::TrustAnchors anchors;
  ProviderConfig config;
  config.catalog = small_catalog();
  config.key_bits = 512;
  ProviderApp provider(net.node(p), "/provider0", config, anchors,
                       util::Rng(24));
  provider.set_client_key_lookup(
      [&](const std::string& label) -> const crypto::RsaPublicKey* {
        return label == "client0" ? &client_keys.public_key : nullptr;
      });
  provider.issuer().enroll(ProviderApp::client_key_locator("client0"), 2);

  // Deliver a registration Interest straight to the provider app face.
  ndn::Interest reg;
  reg.name = provider.registration_name("client0", 1);
  const ndn::FaceId app_face =
      net.node(p).fib().lookup(reg.name)->next_hop();
  net.node(p).inject_from_app(app_face, std::move(reg));
  sched.run();
  EXPECT_EQ(provider.counters().key_encryptions, 1u);
  EXPECT_EQ(provider.counters().tags_issued, 1u);
}

}  // namespace
}  // namespace tactic::workload
