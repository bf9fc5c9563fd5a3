// Tests for the global name-component interning table: ID stability
// across re-registration, stable text references, uri_size parity with
// the string definition, the id_hash() fold, TLV round-trips preserving
// interned IDs, and survival across router crashes that wipe all volatile
// forwarding state (FIB/PIT/CS and the TACTIC validation engine's
// wipe_volatile).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "event/scheduler.hpp"
#include "ndn/forwarder.hpp"
#include "ndn/name.hpp"
#include "ndn/name_table.hpp"
#include "ndn/packet.hpp"
#include "tactic/tactic_policy.hpp"
#include "tactic/wire.hpp"
#include "util/rng.hpp"

namespace tactic::ndn {
namespace {

using event::kMillisecond;
using event::kSecond;

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
  EXPECT_EQ(parsed.component_ids(), built.component_ids());
  EXPECT_EQ(parsed.component_ids(), appended.component_ids());
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
  const Name rebuilt = Name::from_ids(name.component_ids());
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

TEST(NameTable, TlvRoundTripPreservesInternedIds) {
  const Name name("/name-table-test-tlv/obj/42");
  const util::Bytes encoded = wire::encode_name(name);
  const Name decoded = wire::decode_name(encoded);
  EXPECT_EQ(decoded, name);
  EXPECT_EQ(decoded.component_ids(), name.component_ids());
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
