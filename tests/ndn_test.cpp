// Tests for the NDN layer: names, packets, FIB longest-prefix match, PIT
// aggregation, Content Store LRU, and the forwarding pipeline over
// hand-wired multi-node chains.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "event/scheduler.hpp"
#include "ndn/cs.hpp"
#include "ndn/fib.hpp"
#include "ndn/forwarder.hpp"
#include "ndn/name.hpp"
#include "ndn/packet.hpp"
#include "ndn/pit.hpp"
#include "tactic/tag.hpp"

namespace tactic::ndn {
namespace {

using event::kMillisecond;
using event::kSecond;

// ---------------------------------------------------------------------------
// Name
// ---------------------------------------------------------------------------

TEST(Name, ParseAndUri) {
  const Name name("/provider0/obj3/c7");
  EXPECT_EQ(name.size(), 3u);
  EXPECT_EQ(name.at(0), "provider0");
  EXPECT_EQ(name.at(2), "c7");
  EXPECT_EQ(name.to_uri(), "/provider0/obj3/c7");
}

TEST(Name, RootAndEmpty) {
  EXPECT_TRUE(Name("/").empty());
  EXPECT_TRUE(Name("").empty());
  EXPECT_EQ(Name("/").to_uri(), "/");
}

TEST(Name, CollapsesRedundantSlashes) {
  EXPECT_EQ(Name("//a///b/").to_uri(), "/a/b");
  EXPECT_EQ(Name("a/b"), Name("/a/b"));  // leading slash optional
}

TEST(Name, PrefixOps) {
  const Name name("/a/b/c");
  EXPECT_EQ(name.prefix(2).to_uri(), "/a/b");
  EXPECT_EQ(name.prefix(0).to_uri(), "/");
  EXPECT_EQ(name.prefix(99), name);  // clamped
  EXPECT_TRUE(Name("/a").is_prefix_of(name));
  EXPECT_TRUE(Name("/a/b/c").is_prefix_of(name));
  EXPECT_TRUE(Name("/").is_prefix_of(name));
  EXPECT_FALSE(Name("/a/b/c/d").is_prefix_of(name));
  EXPECT_FALSE(Name("/a/x").is_prefix_of(name));
}

TEST(Name, PrefixIsComponentwiseNotTextual) {
  EXPECT_FALSE(Name("/ab").is_prefix_of(Name("/abc")));
}

TEST(Name, AppendDoesNotMutate) {
  const Name base("/a");
  const Name extended = base.append("b").append_number(42);
  EXPECT_EQ(base.to_uri(), "/a");
  EXPECT_EQ(extended.to_uri(), "/a/b/42");
}

TEST(Name, CompareOrdering) {
  EXPECT_LT(Name("/a"), Name("/b"));
  EXPECT_LT(Name("/a"), Name("/a/b"));  // shorter sorts first
  EXPECT_EQ(Name("/a/b").compare(Name("/a/b")), 0);
  EXPECT_GT(Name("/b").compare(Name("/a/z/z")), 0);
}

TEST(Name, HashDistinguishesComponentBoundaries) {
  EXPECT_NE(Name("/ab/c").id_hash(), Name("/a/bc").id_hash());
  EXPECT_EQ(Name("/x/y").id_hash(), Name("/x/y").id_hash());
}

// ---------------------------------------------------------------------------
// Packets
// ---------------------------------------------------------------------------

TEST(Packet, InterestWireSizeGrowsWithTagAndPayload) {
  Interest plain;
  plain.name = Name("/p/obj1/c1");
  const std::size_t base = plain.wire_size();
  Interest with_payload = plain;
  with_payload.payload_size = 64;
  EXPECT_EQ(with_payload.wire_size(), base + 64);
}

TEST(Packet, DataWireSizeIncludesContent) {
  Data data;
  data.name = Name("/p/obj1/c1");
  data.content_size = 1024;
  data.signature_size = 128;
  EXPECT_GE(data.wire_size(), 1024u + 128u);
}

TEST(Packet, NackReasonNames) {
  EXPECT_STREQ(to_string(NackReason::kNoTag), "no-tag");
  EXPECT_STREQ(to_string(NackReason::kExpiredTag), "expired-tag");
  EXPECT_STREQ(to_string(NackReason::kAccessPathMismatch),
               "access-path-mismatch");
}

// ---------------------------------------------------------------------------
// FIB
// ---------------------------------------------------------------------------

TEST(Fib, LongestPrefixMatchWins) {
  Fib fib;
  fib.add_route(Name("/"), 1);
  fib.add_route(Name("/a"), 2);
  fib.add_route(Name("/a/b"), 3);
  EXPECT_EQ(fib.lookup(Name("/a/b/c"))->next_hop(), 3u);
  EXPECT_EQ(fib.lookup(Name("/a/x"))->next_hop(), 2u);
  EXPECT_EQ(fib.lookup(Name("/zzz"))->next_hop(), 1u);
}

TEST(Fib, NoDefaultRouteMeansMiss) {
  Fib fib;
  fib.add_route(Name("/a"), 2);
  EXPECT_EQ(fib.lookup(Name("/b")), nullptr);
}

TEST(Fib, ExactMatchOfEntryName) {
  Fib fib;
  fib.add_route(Name("/a/b"), 5);
  EXPECT_EQ(fib.lookup(Name("/a/b"))->next_hop(), 5u);
  EXPECT_EQ(fib.lookup(Name("/a")), nullptr);
  ASSERT_NE(fib.find_exact(Name("/a/b")), nullptr);
  EXPECT_EQ(fib.find_exact(Name("/a")), nullptr);
}

TEST(Fib, MultipathAccumulatesAndOrdersByCost) {
  Fib fib;
  fib.add_route(Name("/a"), 1, /*cost=*/2);
  fib.add_route(Name("/a"), 2, /*cost=*/1);
  EXPECT_EQ(fib.size(), 1u);
  const Fib::Entry* entry = fib.lookup(Name("/a/x"));
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->next_hops.size(), 2u);
  EXPECT_EQ(entry->next_hop(), 2u);  // lower cost wins
  // Updating the cost of an existing hop re-sorts rather than duplicating.
  fib.add_route(Name("/a"), 2, /*cost=*/5);
  EXPECT_EQ(fib.lookup(Name("/a/x"))->next_hops.size(), 2u);
  EXPECT_EQ(fib.lookup(Name("/a/x"))->next_hop(), 1u);
  fib.remove_route(Name("/a"));
  EXPECT_EQ(fib.lookup(Name("/a/x")), nullptr);
}

TEST(Fib, RemoveNextHopDropsEmptyEntry) {
  Fib fib;
  fib.add_route(Name("/a"), 1);
  fib.add_route(Name("/a"), 2);
  fib.remove_next_hop(Name("/a"), 1);
  ASSERT_NE(fib.lookup(Name("/a/x")), nullptr);
  EXPECT_EQ(fib.lookup(Name("/a/x"))->next_hop(), 2u);
  fib.remove_next_hop(Name("/a"), 2);
  EXPECT_EQ(fib.lookup(Name("/a/x")), nullptr);
  EXPECT_EQ(fib.size(), 0u);
}

TEST(Fib, SetRoutesReplacesWholesale) {
  Fib fib;
  fib.add_route(Name("/a"), 1);
  fib.set_routes(Name("/a"), {{7, 3}, {5, 1}});
  const Fib::Entry* entry = fib.lookup(Name("/a/x"));
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->next_hops.size(), 2u);
  EXPECT_EQ(entry->next_hop(), 5u);  // sorted by cost
  fib.set_routes(Name("/a"), {});    // empty set removes the entry
  EXPECT_EQ(fib.lookup(Name("/a/x")), nullptr);
}

// ---------------------------------------------------------------------------
// PIT
// ---------------------------------------------------------------------------

TEST(Pit, CreateFindErase) {
  Pit pit;
  EXPECT_EQ(pit.find(Name("/x")), nullptr);
  PitEntry& entry = pit.get_or_create(Name("/x"));
  EXPECT_EQ(entry.name, Name("/x"));
  EXPECT_EQ(pit.find(Name("/x")), &entry);
  EXPECT_EQ(pit.size(), 1u);
  pit.erase(Name("/x"));
  EXPECT_EQ(pit.find(Name("/x")), nullptr);
}

TEST(Pit, GetOrCreateIsIdempotent) {
  Pit pit;
  PitEntry& a = pit.get_or_create(Name("/x"));
  a.in_records.push_back(PitInRecord{1, 42, nullptr, 0, 0.0, 0, kSecond});
  PitEntry& b = pit.get_or_create(Name("/x"));
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.in_records.size(), 1u);
}

TEST(Pit, NonceDetection) {
  Pit pit;
  PitEntry& entry = pit.get_or_create(Name("/x"));
  entry.in_records.push_back(PitInRecord{1, 42, nullptr, 0, 0.0, 0, kSecond});
  EXPECT_TRUE(Pit::has_nonce(entry, 42));
  EXPECT_FALSE(Pit::has_nonce(entry, 43));
}

// ---------------------------------------------------------------------------
// Content Store
// ---------------------------------------------------------------------------

Data make_data(const std::string& uri) {
  Data data;
  data.name = Name(uri);
  data.content_size = 100;
  return data;
}

std::shared_ptr<const core::Tag> make_tag(const std::string& client) {
  core::Tag::Fields fields;
  fields.provider_key_locator = "/p/KEY/1";
  fields.client_key_locator = "/" + client + "/KEY/1";
  fields.expiry = 100 * kSecond;
  return std::make_shared<const core::Tag>(fields, util::Bytes{1, 2, 3});
}

TEST(ContentStore, InsertFindCounts) {
  ContentStore cs(10);
  EXPECT_EQ(cs.find(Name("/a")), nullptr);
  EXPECT_EQ(cs.misses(), 1u);
  cs.insert(make_data("/a"));
  ASSERT_NE(cs.find(Name("/a")), nullptr);
  EXPECT_EQ(cs.hits(), 1u);
}

TEST(ContentStore, LruEviction) {
  ContentStore cs(3);
  cs.insert(make_data("/a"));
  cs.insert(make_data("/b"));
  cs.insert(make_data("/c"));
  // Touch /a so /b becomes the LRU victim.
  cs.find(Name("/a"));
  cs.insert(make_data("/d"));
  EXPECT_TRUE(cs.contains(Name("/a")));
  EXPECT_FALSE(cs.contains(Name("/b")));
  EXPECT_TRUE(cs.contains(Name("/c")));
  EXPECT_TRUE(cs.contains(Name("/d")));
  EXPECT_EQ(cs.size(), 3u);
}

TEST(ContentStore, ZeroCapacityDisablesCaching) {
  ContentStore cs(0);
  cs.insert(make_data("/a"));
  EXPECT_FALSE(cs.contains(Name("/a")));
}

// The CS copies the content fields out of the packet and keeps nothing
// of its envelope: the entry outlives every handle on the packet, and
// the envelope's tag is not kept alive by it.
TEST(ContentStore, StoresContentByValue) {
  ContentStore cs(10);
  auto signature = std::make_shared<const util::Bytes>(util::Bytes{7, 8, 9});
  std::weak_ptr<const core::Tag> echoed_tag;
  {
    auto data = std::make_shared<Data>();
    data->name = Name("/p/obj/c3");
    data->content_size = 777;
    data->access_level = 3;
    data->provider_key_locator = "/p/KEY/by-value";
    data->signature_size = 64;
    data->signature = signature;
    data->tag = make_tag("u1");
    data->tag_wire_size = data->tag->wire_size();
    data->nack_attached = true;
    data->nack_reason = NackReason::kExpiredTag;
    data->flag_f = 0.5;
    data->from_cache = true;
    echoed_tag = data->tag;
    cs.insert(*data);
  }
  signature.reset();
  EXPECT_TRUE(echoed_tag.expired());

  const ContentStore::Entry* stored = cs.find(Name("/p/obj/c3"));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->name, Name("/p/obj/c3"));
  EXPECT_EQ(stored->content_size, 777u);
  EXPECT_EQ(stored->access_level, 3u);
  EXPECT_EQ(NameTable::instance().text(stored->key_locator),
            "/p/KEY/by-value");
  EXPECT_EQ(stored->signature_size, 64u);
  ASSERT_NE(cs.signature(*stored), nullptr);
  EXPECT_EQ(*cs.signature(*stored), (util::Bytes{7, 8, 9}));
}

TEST(ContentStore, ReinsertRefreshesLru) {
  ContentStore cs(2);
  cs.insert(make_data("/a"));
  cs.insert(make_data("/b"));
  cs.insert(make_data("/a"));  // refresh
  cs.insert(make_data("/c"));  // evicts /b
  EXPECT_TRUE(cs.contains(Name("/a")));
  EXPECT_FALSE(cs.contains(Name("/b")));
}

// ---------------------------------------------------------------------------
// Forwarder pipeline over hand-wired chains
// ---------------------------------------------------------------------------

struct TestNet {
  event::Scheduler sched;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<Forwarder>> nodes;

  Forwarder& add(const std::string& label,
                 net::NodeKind kind = net::NodeKind::kCoreRouter,
                 std::size_t cs_capacity = 100) {
    nodes.push_back(std::make_unique<Forwarder>(
        sched,
        net::NodeInfo{static_cast<net::NodeId>(nodes.size()), kind, label},
        cs_capacity));
    return *nodes.back();
  }

  /// Wires a <-> b; returns {face on a toward b, face on b toward a}.
  std::pair<FaceId, FaceId> connect(
      Forwarder& a, Forwarder& b,
      net::LinkParams params = {1e9, kMillisecond, 100}) {
    links.push_back(std::make_unique<net::Link>(sched, params));
    net::Link* ab = links.back().get();
    links.push_back(std::make_unique<net::Link>(sched, params));
    net::Link* ba = links.back().get();
    auto fa_cell = std::make_shared<FaceId>(kInvalidFace);
    auto fb_cell = std::make_shared<FaceId>(kInvalidFace);
    const FaceId fa = a.add_link_face(ab, [&b, fb_cell](PacketVariant&& p) {
      b.receive(*fb_cell, std::move(p));
    });
    const FaceId fb = b.add_link_face(ba, [&a, fa_cell](PacketVariant&& p) {
      a.receive(*fa_cell, std::move(p));
    });
    *fa_cell = fa;
    *fb_cell = fb;
    return {fa, fb};
  }
};

Interest make_interest(const std::string& uri, std::uint64_t nonce = 1) {
  Interest interest;
  interest.name = Name(uri);
  interest.nonce = nonce;
  interest.lifetime = kSecond;
  return interest;
}

/// Consumer <-> router <-> producer chain where the producer app answers
/// every Interest under "/p".
struct Chain : TestNet {
  Forwarder* consumer;
  Forwarder* router;
  Forwarder* producer;
  FaceId consumer_app = kInvalidFace;
  FaceId producer_app = kInvalidFace;
  std::vector<Data> received;
  std::vector<Nack> nacks;
  int produced = 0;

  Chain() {
    consumer = &add("consumer", net::NodeKind::kClient, 0);
    router = &add("router");
    producer = &add("producer", net::NodeKind::kProvider, 0);
    auto [c_r, r_c] = connect(*consumer, *router);
    auto [r_p, p_r] = connect(*router, *producer);

    consumer_app = consumer->add_app_face(AppSink{
        nullptr, [this](const Data& d) { received.push_back(d); },
        [this](const Nack& n) { nacks.push_back(n); }});
    producer_app = producer->add_app_face(AppSink{
        [this](FaceId face, const Interest& interest) {
          ++produced;
          Data data;
          data.name = interest.name;
          data.content_size = 1024;
          producer->inject_from_app(face, std::move(data));
        },
        nullptr, nullptr});

    consumer->fib().add_route(Name("/"), c_r);
    router->fib().add_route(Name("/p"), r_p);
    producer->fib().add_route(Name("/p"), producer_app);
    (void)p_r;
    (void)r_c;
  }

  void express(const std::string& uri, std::uint64_t nonce = 1) {
    consumer->inject_from_app(consumer_app, make_interest(uri, nonce));
  }
};

TEST(Forwarder, EndToEndFetch) {
  Chain chain;
  chain.express("/p/obj/c0");
  chain.sched.run();
  ASSERT_EQ(chain.received.size(), 1u);
  EXPECT_EQ(chain.received[0].name, Name("/p/obj/c0"));
  EXPECT_EQ(chain.produced, 1);
  EXPECT_FALSE(chain.received[0].from_cache);
}

TEST(Forwarder, SecondFetchServedFromCache) {
  Chain chain;
  chain.express("/p/obj/c0", 1);
  chain.sched.run();
  chain.express("/p/obj/c0", 2);
  chain.sched.run();
  ASSERT_EQ(chain.received.size(), 2u);
  EXPECT_EQ(chain.produced, 1);  // router cache answered the second
  EXPECT_TRUE(chain.received[1].from_cache);
  EXPECT_EQ(chain.router->cs().hits(), 1u);
}

TEST(Forwarder, NoRouteYieldsNack) {
  Chain chain;
  chain.express("/unrouted/x");
  chain.sched.run();
  ASSERT_EQ(chain.nacks.size(), 1u);
  EXPECT_EQ(chain.nacks[0].reason, NackReason::kNoRoute);
  EXPECT_TRUE(chain.received.empty());
}

TEST(Forwarder, DuplicateNonceDropped) {
  Chain chain;
  chain.express("/p/a", 7);
  chain.express("/p/a", 7);  // same nonce while first is in flight
  chain.sched.run();
  EXPECT_EQ(chain.produced, 1);
  // The consumer's own PIT already holds (name, nonce): the duplicate is
  // detected there, one hop before the router.
  EXPECT_EQ(chain.consumer->counters().duplicate_interests, 1u);
  EXPECT_EQ(chain.received.size(), 1u);
}

TEST(Forwarder, PitExpiryCleansEntry) {
  Chain chain;
  // A producer app that swallows Interests: the router PIT entry must be
  // garbage-collected when the Interest lifetime elapses.
  chain.producer->fib().remove_route(Name("/p"));
  const FaceId blackhole =
      chain.producer->add_app_face(AppSink{});  // drops everything
  chain.producer->fib().add_route(Name("/p"), blackhole);

  chain.express("/p/slow");
  chain.sched.run_until(500 * kMillisecond);
  EXPECT_EQ(chain.router->pit().size(), 1u);  // still pending
  chain.sched.run_until(5 * kSecond);
  EXPECT_EQ(chain.router->pit().size(), 0u);  // expired and cleaned
  EXPECT_GE(chain.router->counters().pit_expirations, 1u);
}

/// One forwarder whose FIB routes "/p" to an app face that swallows
/// Interests: every entry it creates stays pending until satisfied by
/// hand or expired.
struct Blackhole {
  event::Scheduler sched;
  Forwarder node{sched, net::NodeInfo{0, net::NodeKind::kCoreRouter, "r"}, 0};
  FaceId consumer = node.add_app_face(AppSink{});
  FaceId producer = node.add_app_face(AppSink{});

  Blackhole() { node.fib().add_route(Name("/p"), producer); }

  void express(const std::string& uri, event::Time lifetime,
               std::uint64_t nonce = 1) {
    Interest interest = make_interest(uri, nonce);
    interest.lifetime = lifetime;
    node.inject_from_app(consumer, std::move(interest));
  }
  void satisfy(const std::string& uri) {
    Data data;
    data.name = Name(uri);
    node.inject_from_app(producer, std::move(data));
  }
  bool pending(const std::string& uri) {
    return node.pit().find(Name(uri)) != nullptr;
  }
  std::uint64_t expirations() const {
    return node.counters().pit_expirations;
  }
};

TEST(Forwarder, EarlierDeadlineExpiresFirst) {
  Blackhole net;
  net.express("/p/long", 10 * kSecond);
  net.sched.run_until(100 * kMillisecond);
  net.express("/p/short", kSecond);
  net.sched.run_until(1100 * kMillisecond - 1);
  EXPECT_TRUE(net.pending("/p/short"));
  net.sched.run_until(1100 * kMillisecond);
  EXPECT_FALSE(net.pending("/p/short"));  // left at exactly its deadline
  EXPECT_TRUE(net.pending("/p/long"));
  EXPECT_EQ(net.expirations(), 1u);
  net.sched.run_until(10 * kSecond);
  EXPECT_FALSE(net.pending("/p/long"));
  EXPECT_EQ(net.expirations(), 2u);
}

TEST(Forwarder, SatisfyingEarliestEntryKeepsLaterDeadline) {
  Blackhole net;
  net.express("/p/a", kSecond);
  net.express("/p/b", 2 * kSecond);
  net.sched.run_until(500 * kMillisecond);
  net.satisfy("/p/a");
  EXPECT_FALSE(net.pending("/p/a"));
  net.sched.run_until(2 * kSecond - 1);
  EXPECT_TRUE(net.pending("/p/b"));  // not early
  net.sched.run_until(2 * kSecond);
  EXPECT_FALSE(net.pending("/p/b"));  // not late
  EXPECT_EQ(net.expirations(), 1u);
}

TEST(Forwarder, AggregatedInterestExtendsEntry) {
  Blackhole net;
  net.express("/p/x", kSecond, 1);
  net.sched.run_until(500 * kMillisecond);
  net.express("/p/x", kSecond, 2);  // aggregated; deadline moves to 1.5 s
  EXPECT_EQ(net.node.counters().interests_aggregated, 1u);
  net.sched.run_until(1500 * kMillisecond - 1);
  EXPECT_TRUE(net.pending("/p/x"));  // survived the first deadline
  EXPECT_EQ(net.expirations(), 0u);
  net.sched.run_until(1500 * kMillisecond);
  EXPECT_FALSE(net.pending("/p/x"));
  EXPECT_EQ(net.expirations(), 1u);
}

TEST(Forwarder, EntryAfterRestartStillExpires) {
  Blackhole net;
  net.express("/p/lost", kSecond);
  net.sched.run_until(500 * kMillisecond);
  net.node.crash();
  net.node.restart();
  EXPECT_FALSE(net.pending("/p/lost"));  // wiped with the PIT
  // Due after the wiped entry's deadline (1 s), so a wakeup still armed
  // for that deadline must not stand in for this one.
  net.express("/p/new", kSecond);
  net.sched.run_until(1500 * kMillisecond - 1);
  EXPECT_TRUE(net.pending("/p/new"));
  net.sched.run_until(1500 * kMillisecond);
  EXPECT_FALSE(net.pending("/p/new"));
  net.sched.run_until(10 * kSecond);
  EXPECT_EQ(net.expirations(), 1u);  // the wiped entry never counts
}

TEST(Forwarder, CountersTrackPipeline) {
  Chain chain;
  chain.express("/p/a", 1);
  chain.sched.run();
  EXPECT_EQ(chain.router->counters().interests_received, 1u);
  EXPECT_EQ(chain.router->counters().interests_forwarded, 1u);
  EXPECT_EQ(chain.router->counters().data_received, 1u);
  EXPECT_GE(chain.router->counters().data_sent, 1u);
}

/// Two consumers behind one router aggregate on the same name.
TEST(Forwarder, PitAggregationFansOut) {
  TestNet net;
  Forwarder& c1 = net.add("c1", net::NodeKind::kClient, 0);
  Forwarder& c2 = net.add("c2", net::NodeKind::kClient, 0);
  Forwarder& router = net.add("r");
  Forwarder& producer = net.add("p", net::NodeKind::kProvider, 0);
  auto [c1_r, r_c1] = net.connect(c1, router);
  auto [c2_r, r_c2] = net.connect(c2, router);
  auto [r_p, p_r] = net.connect(router, producer);
  (void)r_c1; (void)r_c2; (void)p_r;

  int got1 = 0, got2 = 0, produced = 0;
  const FaceId a1 = c1.add_app_face(
      AppSink{nullptr, [&](const Data&) { ++got1; }, nullptr});
  const FaceId a2 = c2.add_app_face(
      AppSink{nullptr, [&](const Data&) { ++got2; }, nullptr});
  const FaceId pa = producer.add_app_face(AppSink{
      [&](FaceId face, const Interest& interest) {
        ++produced;
        Data data;
        data.name = interest.name;
        producer.inject_from_app(face, std::move(data));
      },
      nullptr, nullptr});
  c1.fib().add_route(Name("/"), c1_r);
  c2.fib().add_route(Name("/"), c2_r);
  router.fib().add_route(Name("/p"), r_p);
  producer.fib().add_route(Name("/p"), pa);

  c1.inject_from_app(a1, make_interest("/p/x", 1));
  c2.inject_from_app(a2, make_interest("/p/x", 2));
  net.sched.run();

  EXPECT_EQ(produced, 1);  // aggregated upstream
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
  EXPECT_EQ(router.counters().interests_aggregated, 1u);
}

TEST(Forwarder, UnsolicitedDataDropped) {
  Chain chain;
  Data stray;
  stray.name = Name("/p/stray");
  chain.router->receive(0, make_packet(std::move(stray)));
  chain.sched.run();
  EXPECT_EQ(chain.router->counters().unsolicited_data, 1u);
  EXPECT_FALSE(chain.router->cs().contains(Name("/p/stray")));
}

TEST(Forwarder, RegistrationResponsesNotCached) {
  Chain chain;
  // Producer answers with a registration response this time.
  Forwarder& producer = *chain.producer;
  producer.fib().remove_route(Name("/p"));
  const FaceId app = producer.add_app_face(AppSink{
      [&producer](FaceId face, const Interest& interest) {
        Data data;
        data.name = interest.name;
        data.is_registration_response = true;
        producer.inject_from_app(face, std::move(data));
      },
      nullptr, nullptr});
  producer.fib().add_route(Name("/p"), app);

  chain.express("/p/register/u1/1");
  chain.sched.run();
  ASSERT_EQ(chain.received.size(), 1u);
  EXPECT_TRUE(chain.received[0].is_registration_response);
  EXPECT_FALSE(chain.router->cs().contains(Name("/p/register/u1/1")));
}

// A cache hit serves the cached content under the second requester's
// own envelope: never the tag, F or NACK the content arrived with.
TEST(Forwarder, CacheInsertStripsEnvelope) {
  Chain chain;
  Forwarder& producer = *chain.producer;
  producer.fib().remove_route(Name("/p"));
  int produced = 0;
  const FaceId app = producer.add_app_face(AppSink{
      [&producer, &produced](FaceId face, const Interest& interest) {
        ++produced;
        Data data;
        data.name = interest.name;
        data.content_size = 256;
        data.access_level = 2;
        data.provider_key_locator = "/p/KEY/1";
        data.signature_size = 32;
        data.signature =
            std::make_shared<const util::Bytes>(util::Bytes(32, 0xAB));
        data.tag = interest.tag;  // content-tag pair
        data.tag_wire_size = interest.tag_wire_size;
        data.nack_reason = NackReason::kInvalidSignature;  // stale field
        data.flag_f = 0.5;
        producer.inject_from_app(face, std::move(data));
      },
      nullptr, nullptr});
  producer.fib().add_route(Name("/p"), app);

  const auto express_tagged = [&](std::uint64_t nonce,
                                  std::shared_ptr<const core::Tag> tag,
                                  double flag_f) {
    Interest interest = make_interest("/p/dirty", nonce);
    interest.tag_wire_size = tag->wire_size();
    interest.tag = std::move(tag);
    interest.flag_f = flag_f;
    chain.consumer->inject_from_app(chain.consumer_app, std::move(interest));
  };
  const auto first_tag = make_tag("u1");
  const auto second_tag = make_tag("u2");
  ASSERT_EQ(first_tag->wire_size(), second_tag->wire_size());
  express_tagged(1, first_tag, 0.0);
  chain.sched.run();
  express_tagged(2, second_tag, 0.25);
  chain.sched.run();

  ASSERT_EQ(chain.received.size(), 2u);
  EXPECT_EQ(produced, 1);  // the router's cache answered the second
  EXPECT_EQ(chain.router->cs().hits(), 1u);
  const Data& response = chain.received[0];
  const Data& served = chain.received[1];
  EXPECT_FALSE(response.from_cache);
  EXPECT_EQ(response.tag, first_tag);
  EXPECT_TRUE(served.from_cache);
  EXPECT_EQ(served.tag, second_tag);
  EXPECT_EQ(served.tag_wire_size, second_tag->wire_size());
  EXPECT_EQ(served.flag_f, 0.25);
  EXPECT_FALSE(served.nack_attached);
  EXPECT_EQ(served.nack_reason, NackReason::kNone);
  EXPECT_FALSE(served.is_registration_response);
  EXPECT_EQ(served.name, response.name);
  EXPECT_EQ(served.content_size, response.content_size);
  EXPECT_EQ(served.access_level, response.access_level);
  EXPECT_EQ(served.provider_key_locator, response.provider_key_locator);
  EXPECT_EQ(served.signature_size, response.signature_size);
  EXPECT_EQ(served.signature, response.signature);
  EXPECT_EQ(served.wire_size(), response.wire_size());
}

// The cache holds no packet: a caching router that forwards tagged
// responses keeps no live Data slot in its pool.
TEST(Forwarder, CacheHoldsNoPoolSlot) {
  const bool pooling = PacketPool::pooling_enabled();
  PacketPool::set_pooling_enabled(true);
  Chain chain;
  Forwarder& producer = *chain.producer;
  producer.fib().remove_route(Name("/p"));
  const FaceId app = producer.add_app_face(AppSink{
      [&producer](FaceId face, const Interest& interest) {
        Data data;
        data.name = interest.name;
        data.tag = interest.tag;  // tag echo: envelope the cache drops
        data.tag_wire_size = interest.tag_wire_size;
        producer.inject_from_app(face, std::move(data));
      },
      nullptr, nullptr});
  producer.fib().add_route(Name("/p"), app);

  constexpr std::size_t kChunks = 8;
  const auto tag = make_tag("u1");
  for (std::size_t i = 0; i < kChunks; ++i) {
    Interest interest = make_interest("/p/obj/c" + std::to_string(i), i + 1);
    interest.tag = tag;
    interest.tag_wire_size = tag->wire_size();
    chain.consumer->inject_from_app(chain.consumer_app, std::move(interest));
  }
  chain.sched.run();
  PacketPool::set_pooling_enabled(pooling);

  ASSERT_EQ(chain.received.size(), kChunks);
  EXPECT_EQ(chain.router->cs().size(), kChunks);
  const PacketPool& pool = chain.router->pool();
  EXPECT_EQ(pool.data_slot_count(), pool.free_data_slots());
}

/// Diamond topology: consumer - router - {upper, lower} - producer, with
/// equal-cost multipath at the router.  Killing the primary path must not
/// lose Interests: the router fails over synchronously.
TEST(Forwarder, EqualCostFailoverOnDeadLink) {
  TestNet net;
  Forwarder& consumer = net.add("c", net::NodeKind::kClient, 0);
  Forwarder& router = net.add("r");
  Forwarder& upper = net.add("u");
  Forwarder& lower = net.add("l");
  Forwarder& producer = net.add("p", net::NodeKind::kProvider, 0);
  auto [c_r, r_c] = net.connect(consumer, router);
  auto [r_u, u_r] = net.connect(router, upper);
  auto [r_l, l_r] = net.connect(router, lower);
  auto [u_p, p_u] = net.connect(upper, producer);
  auto [l_p, p_l] = net.connect(lower, producer);
  (void)r_c; (void)u_r; (void)l_r; (void)p_u; (void)p_l;

  int received = 0, produced = 0;
  const FaceId app = consumer.add_app_face(
      AppSink{nullptr, [&](const Data&) { ++received; }, nullptr});
  const FaceId papp = producer.add_app_face(AppSink{
      [&](FaceId face, const Interest& interest) {
        ++produced;
        Data data;
        data.name = interest.name;
        producer.inject_from_app(face, std::move(data));
      },
      nullptr, nullptr});
  consumer.fib().add_route(Name("/"), c_r);
  router.fib().add_route(Name("/p"), r_u, 2);
  router.fib().add_route(Name("/p"), r_l, 2);  // equal-cost alternate
  upper.fib().add_route(Name("/p"), u_p, 1);
  lower.fib().add_route(Name("/p"), l_p, 1);
  producer.fib().add_route(Name("/p"), papp);

  consumer.inject_from_app(app, make_interest("/p/x", 1));
  net.sched.run();
  EXPECT_EQ(received, 1);

  // Kill the primary (lowest face id) upstream link; traffic must take
  // the alternate without any routing update.  Every refused attempt
  // counts one link_send_failure; the successful retry on the alternate
  // counts one failover.
  net.links[2]->set_up(false);  // router -> upper direction
  consumer.inject_from_app(app, make_interest("/p/y", 2));
  net.sched.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(router.counters().interest_failovers, 1u);
  EXPECT_EQ(router.counters().link_send_failures, 1u);
  EXPECT_EQ(net.links[2]->counters().refused_link_down, 1u);

  // Kill the alternate too: the Interest dies at the router.  Both
  // candidate hops refuse (two more link_send_failures), no failover
  // succeeds, and the Interest is counted unsent — not failed over.
  net.links[4]->set_up(false);  // router -> lower direction
  consumer.inject_from_app(app, make_interest("/p/z", 3));
  net.sched.run_until(net.sched.now() + 5 * kSecond);
  EXPECT_EQ(received, 2);
  EXPECT_EQ(router.counters().interests_unsent, 1u);
  EXPECT_EQ(router.counters().interest_failovers, 1u);  // unchanged
  EXPECT_EQ(router.counters().link_send_failures, 3u);
  EXPECT_EQ(produced, 2);
}

/// Same diamond, but the primary next hop refuses because its drop-tail
/// queue is full rather than because the link is down: the Interest must
/// fail over identically, and the refusal must land in the queue-full
/// half of the split link counters.
TEST(Forwarder, EqualCostFailoverOnFullQueue) {
  TestNet net;
  Forwarder& consumer = net.add("c", net::NodeKind::kClient, 0);
  Forwarder& router = net.add("r");
  Forwarder& upper = net.add("u");
  Forwarder& lower = net.add("l");
  Forwarder& producer = net.add("p", net::NodeKind::kProvider, 0);
  auto [c_r, r_c] = net.connect(consumer, router);
  // Primary upstream: slow enough that the first frame still occupies it
  // when the second arrives, with room for nothing behind it
  // (max_queue=1), yet fast enough to finish within the Interest
  // lifetime.
  auto [r_u, u_r] = net.connect(router, upper, {1e5, kMillisecond, 1});
  auto [r_l, l_r] = net.connect(router, lower);
  auto [u_p, p_u] = net.connect(upper, producer);
  auto [l_p, p_l] = net.connect(lower, producer);
  (void)r_c; (void)u_r; (void)l_r; (void)p_u; (void)p_l;

  int received = 0;
  const FaceId app = consumer.add_app_face(
      AppSink{nullptr, [&](const Data&) { ++received; }, nullptr});
  const FaceId papp = producer.add_app_face(AppSink{
      [&](FaceId face, const Interest& interest) {
        Data data;
        data.name = interest.name;
        producer.inject_from_app(face, std::move(data));
      },
      nullptr, nullptr});
  consumer.fib().add_route(Name("/"), c_r);
  router.fib().add_route(Name("/p"), r_u, 2);
  router.fib().add_route(Name("/p"), r_l, 2);  // equal-cost alternate
  upper.fib().add_route(Name("/p"), u_p, 1);
  lower.fib().add_route(Name("/p"), l_p, 1);
  producer.fib().add_route(Name("/p"), papp);

  // Both Interests arrive back to back: the first occupies the slow
  // primary, the second is refused by the full queue and fails over.
  consumer.inject_from_app(app, make_interest("/p/x", 1));
  consumer.inject_from_app(app, make_interest("/p/y", 2));
  net.sched.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(router.counters().interest_failovers, 1u);
  EXPECT_EQ(router.counters().link_send_failures, 1u);
  EXPECT_EQ(router.counters().interests_unsent, 0u);
  EXPECT_EQ(net.links[2]->counters().dropped_queue_full, 1u);
  EXPECT_EQ(net.links[2]->counters().refused_link_down, 0u);
}

TEST(Forwarder, WireSizeVariant) {
  Interest interest = make_interest("/p/a");
  Data data;
  data.name = Name("/p/a");
  Nack nack{Name("/p/a"), NackReason::kNoTag, };
  EXPECT_EQ(wire_size(make_packet(Interest(interest))), interest.wire_size());
  EXPECT_EQ(wire_size(make_packet(Data(data))), data.wire_size());
  EXPECT_EQ(wire_size(make_packet(Nack(nack))), nack.wire_size());
}

}  // namespace
}  // namespace tactic::ndn
