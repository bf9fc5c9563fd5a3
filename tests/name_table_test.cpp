// Tests for the global name-component interning table: ID stability
// across re-registration, stable text references, uri_size parity with
// the string definition, the id_hash() fold and its cache across every
// edit, TLV round-trips preserving interned IDs, and survival across
// router crashes that wipe all volatile forwarding state (FIB/PIT/CS and
// the TACTIC validation engine's wipe_volatile).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "event/scheduler.hpp"
#include "ndn/forwarder.hpp"
#include "ndn/name.hpp"
#include "ndn/name_table.hpp"
#include "ndn/packet.hpp"
#include "ndn/packet_pool.hpp"
#include "tactic/tactic_policy.hpp"
#include "tactic/wire.hpp"
#include "util/rng.hpp"

namespace tactic::ndn {
namespace {

using event::kMillisecond;
using event::kSecond;

/// A name's component IDs as a comparable value.
std::vector<ComponentId> ids_of(const Name& name) {
  const auto ids = name.component_ids();
  return {ids.begin(), ids.end()};
}

TEST(NameTable, ReRegistrationYieldsTheSameId) {
  NameTable& table = NameTable::instance();
  const ComponentId first = table.intern("name-table-test-alpha");
  const std::size_t size_after_first = table.size();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(table.intern("name-table-test-alpha"), first);
  }
  EXPECT_EQ(table.size(), size_after_first);  // no duplicate registration

  // Every Name construction path agrees on the interned IDs.
  const Name parsed("/name-table-test-alpha/name-table-test-beta");
  const Name built =
      Name::from_components({"name-table-test-alpha", "name-table-test-beta"});
  const Name appended =
      Name().append("name-table-test-alpha").append("name-table-test-beta");
  EXPECT_EQ(ids_of(parsed), ids_of(built));
  EXPECT_EQ(ids_of(parsed), ids_of(appended));
  EXPECT_EQ(parsed.component_ids()[0], first);
}

TEST(NameTable, TextReferencesStayValidAsTheTableGrows) {
  NameTable& table = NameTable::instance();
  const ComponentId id = table.intern("name-table-test-pinned");
  const std::string* address = &table.text(id);
  for (int i = 0; i < 5000; ++i) {
    table.intern("name-table-test-filler-" + std::to_string(i));
  }
  EXPECT_EQ(&table.text(id), address);  // deque storage never moves
  EXPECT_EQ(table.text(id), "name-table-test-pinned");

  const Name name("/name-table-test-pinned/x");
  EXPECT_EQ(&name.at(0), address);  // Name::at aliases the table
}

TEST(NameTable, FromIdsRoundTripsComponentIds) {
  const Name name("/a/b/c");
  const Name rebuilt = Name::from_ids(ids_of(name));
  EXPECT_EQ(rebuilt, name);
  EXPECT_EQ(rebuilt.to_uri(), "/a/b/c");
}

TEST(NameTable, UriSizeMatchesToUri) {
  EXPECT_EQ(Name().uri_size(), 1u);  // root renders as "/"
  EXPECT_EQ(Name("/").uri_size(), Name("/").to_uri().size());
  util::Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    Name name;
    const std::uint64_t depth = rng.uniform(6);
    for (std::uint64_t d = 0; d < depth; ++d) {
      name = name.append_number(rng.uniform(1u << 16));
    }
    EXPECT_EQ(name.uri_size(), name.to_uri().size()) << name.to_uri();
  }
}

TEST(NameTable, IdHashIsTheFoldOfExtendIdHash) {
  // id_hash() is FNV-1a over the ID words, folded one component at a time
  // with extend_id_hash() from kIdHashSeed — the one definition the FIB's
  // prefix walk and the PIT/CS keys share — and std::hash<Name> returns it.
  const Name name("/provider0/obj3/c7");
  std::uint64_t expected = 14695981039346656037ULL;
  EXPECT_EQ(Name().id_hash(), expected);
  EXPECT_EQ(Name::kIdHashSeed, expected);
  for (const ComponentId id : name.component_ids()) {
    for (int shift = 0; shift < 32; shift += 8) {
      expected ^= (id >> shift) & 0xFFu;
      expected *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(name.id_hash(), expected);
  EXPECT_EQ(std::hash<Name>{}(name), expected);
  std::uint64_t folded = Name::kIdHashSeed;
  for (std::size_t len = 1; len <= name.size(); ++len) {
    folded = Name::extend_id_hash(folded, name.component_ids()[len - 1]);
    EXPECT_EQ(folded, name.prefix(len).id_hash()) << len;
  }
  // Identical across construction paths (and the lazy cache).
  EXPECT_EQ(Name::from_components({"provider0", "obj3", "c7"}).id_hash(),
            expected);
  EXPECT_EQ(name.id_hash(), expected);  // cached second read
  // clear() drops the cached value with the components.
  Name cleared = name;
  cleared.clear();
  EXPECT_EQ(cleared.id_hash(), Name::kIdHashSeed);
}

/// id_hash() of a fresh parse of `uri` (its cache starts empty).
std::uint64_t fresh_hash(const std::string& uri) { return Name(uri).id_hash(); }

/// A name parsed from `uri` whose id_hash() is already cached.
Name cached(const std::string& uri) {
  Name name(uri);
  name.id_hash();
  return name;
}

// Every edit of the components drops the cached hash, and every copy or
// move carries it with the IDs: each name below starts with a cached
// hash, is edited, and must hash like a fresh parse of the result.  The
// bases cover inline IDs and a heap buffer (more than kInlineIds).
TEST(NameHashCache, EveryEditHashesLikeAFreshParse) {
  static_assert(Name::kInlineIds == 4);
  for (const std::string base :
       {"/hash-cache/p0/obj3", "/hash-cache/a/b/c/d"}) {
    SCOPED_TRACE(base);
    EXPECT_EQ(cached(base).append("c7").id_hash(), fresh_hash(base + "/c7"));
    EXPECT_EQ(cached(base).append_number(42).id_hash(),
              fresh_hash(base + "/42"));
    Name pushed = cached(base);
    pushed.push_back(NameTable::instance().intern("c8"));
    EXPECT_EQ(pushed.id_hash(), fresh_hash(base + "/c8"));

    // Copy and move construction carry the hash (and it is the right one).
    const Name source = cached(base);
    const Name copied(source);
    EXPECT_EQ(copied.id_hash(), fresh_hash(base));
    EXPECT_EQ(copied.append("c9").id_hash(), fresh_hash(base + "/c9"));
    Name donor = cached(base);
    const Name moved(std::move(donor));
    EXPECT_EQ(moved.id_hash(), fresh_hash(base));

    // Assignment over names with other cached hashes, inline and heap,
    // from cached and uncached sources.
    for (const std::string other : {"/hash-cache/x", "/hash-cache/1/2/3/4/5"}) {
      SCOPED_TRACE(other);
      Name copy_assigned = cached(other);
      copy_assigned = source;
      EXPECT_EQ(copy_assigned.id_hash(), fresh_hash(base));
      Name move_assigned = cached(other);
      Name moved_source = cached(base);
      move_assigned = std::move(moved_source);
      EXPECT_EQ(move_assigned.id_hash(), fresh_hash(base));
      Name uncached_assigned = cached(other);
      uncached_assigned = Name(base);
      EXPECT_EQ(uncached_assigned.id_hash(), fresh_hash(base));
      Name from_ids = cached(other);
      from_ids = Name::from_ids(ids_of(Name(base + "/ids")));
      EXPECT_EQ(from_ids.id_hash(), fresh_hash(base + "/ids"));
      Name decoded = cached(other);
      decoded = wire::decode_name(wire::encode_name(Name(base + "/tlv")));
      EXPECT_EQ(decoded.id_hash(), fresh_hash(base + "/tlv"));
    }

    // clear(), then a rebuild with and without a hash read in between.
    Name rebuilt = cached(base);
    rebuilt.clear();
    EXPECT_EQ(rebuilt.id_hash(), Name::kIdHashSeed);
    const Name rebuild_source("/hash-cache/r/s");
    for (const ComponentId id : rebuild_source.component_ids()) {
      rebuilt.push_back(id);
    }
    EXPECT_EQ(rebuilt.id_hash(), fresh_hash("/hash-cache/r/s"));
    rebuilt.clear();
    rebuilt = rebuilt.append("hash-cache").append("t");
    EXPECT_EQ(rebuilt.id_hash(), fresh_hash("/hash-cache/t"));

    // A pool slot recycled under a new tenant: reset_for_reuse() clears
    // the name, and the refill hashes as its own.
    ASSERT_TRUE(PacketPool::pooling_enabled());
    PacketPool pool;
    const Interest* address = nullptr;
    {
      auto first = pool.make_interest();
      first->name = cached(base);
      ASSERT_EQ(first->name.id_hash(), fresh_hash(base));
      address = first.get();
    }
    auto refill = pool.make_interest();
    ASSERT_EQ(refill.get(), address);  // the same slot, reset
    EXPECT_TRUE(refill->name.empty());
    EXPECT_EQ(refill->name.id_hash(), Name::kIdHashSeed);
    const Name refill_source(base + "/refill");
    for (const ComponentId id : refill_source.component_ids()) {
      refill->name.push_back(id);
    }
    EXPECT_EQ(refill->name.id_hash(), fresh_hash(base + "/refill"));
  }
}

TEST(NameTable, TlvRoundTripPreservesInternedIds) {
  const Name name("/name-table-test-tlv/obj/42");
  const util::Bytes encoded = wire::encode_name(name);
  const Name decoded = wire::decode_name(encoded);
  EXPECT_EQ(decoded, name);
  EXPECT_EQ(ids_of(decoded), ids_of(name));
  EXPECT_EQ(decoded.to_uri(), name.to_uri());
}

// ---------------------------------------------------------------------------
// Crash interaction: the interning table models the vocabulary of names,
// not router state — a crash wipes FIB/PIT/CS (and the TACTIC engine's
// volatile structures via wipe_volatile) but never the table.
// ---------------------------------------------------------------------------

TEST(NameTable, SurvivesRouterCrashThatWipesTables) {
  NameTable& table = NameTable::instance();
  event::Scheduler sched;
  Forwarder router(sched, net::NodeInfo{0, net::NodeKind::kCoreRouter, "r"},
                   /*cs_capacity=*/16);

  const Name name("/name-table-test-crash/obj/c0");
  const ComponentId head = table.intern("name-table-test-crash");
  const std::string* text_address = &table.text(head);

  // Populate volatile state keyed on the name.
  router.fib().add_route(name.prefix(1), 0);
  router.pit().get_or_create(name);
  Data data;
  data.name = name;
  data.content_size = 64;
  router.cs().insert(data);
  ASSERT_EQ(router.pit().size(), 1u);
  ASSERT_TRUE(router.cs().contains(name));

  const std::size_t table_size = table.size();
  router.crash();

  // Volatile state is gone...
  EXPECT_EQ(router.pit().size(), 0u);
  EXPECT_FALSE(router.cs().contains(name));
  // ...but the vocabulary is intact: same size, same IDs, same storage.
  EXPECT_EQ(table.size(), table_size);
  EXPECT_EQ(table.intern("name-table-test-crash"), head);
  EXPECT_EQ(&table.text(head), text_address);
  EXPECT_EQ(name.to_uri(), "/name-table-test-crash/obj/c0");
}

TEST(NameTable, SurvivesTacticWipeVolatileOnRestart) {
  NameTable& table = NameTable::instance();
  event::Scheduler sched;
  Forwarder router(sched, net::NodeInfo{0, net::NodeKind::kEdgeRouter, "e"},
                   /*cs_capacity=*/0);
  core::TrustAnchors anchors;
  util::Rng rng(7);
  router.set_policy(std::make_unique<core::EdgeTacticPolicy>(
      core::TacticConfig{}, anchors, core::ComputeModel::zero(),
      rng.fork()));

  const ComponentId id = table.intern("name-table-test-wipe");
  const std::size_t table_size = table.size();

  // restart() runs the policy's on_restart, which wipe_volatile()s the
  // validation engine (BF, queues, caches).  The interning table is not
  // router state and must come through untouched.
  router.crash();
  router.restart();

  EXPECT_EQ(table.size(), table_size);
  EXPECT_EQ(table.intern("name-table-test-wipe"), id);
  EXPECT_EQ(table.text(id), "name-table-test-wipe");
}

}  // namespace
}  // namespace tactic::ndn
