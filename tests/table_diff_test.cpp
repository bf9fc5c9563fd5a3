// Differential table-equivalence suite: the prefix-hash Fib against the
// LinearFib reference.
//
// The prefix-hash index is a pure lookup-structure swap — for every
// operation sequence, lookup() and find_exact() must return entries with
// identical prefixes and next-hop lists, and size() must agree.  The
// property sweeps randomize prefix sets over a small component alphabet
// (so shared prefixes, nested prefixes and slot reuse actually happen)
// and interleave add/remove/set_routes with lookups; fixed adversarial
// cases cover the edges a randomized sweep can miss.  Seeds scale through
// TACTIC_PROPERTY_ITERS like tests/property_test.cpp.
//
// The suite also pins the table-cost counters: FIB hash probes bounded by
// the prefix lengths that hold entries (not the table size), PIT expiry
// bookkeeping amortized O(1), CS eviction O(1) — the regression tests
// for latent O(n) scans.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "event/scheduler.hpp"
#include "ndn/cs.hpp"
#include "ndn/fib.hpp"
#include "ndn/name.hpp"
#include "ndn/pit.hpp"
#include "util/rng.hpp"

namespace tactic::ndn {
namespace {

/// Per-seed iteration count, scaled by TACTIC_PROPERTY_ITERS (same
/// convention as tests/property_test.cpp: def=50 is the baseline).
int property_iters(int def) {
  static const long scale = [] {
    const char* raw = std::getenv("TACTIC_PROPERTY_ITERS");
    return raw == nullptr ? 0L : std::atol(raw);
  }();
  if (scale <= 0) return def;
  const long scaled = (scale * def + 49) / 50;
  return static_cast<int>(std::max(1L, scaled));
}

class TableDiffProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  util::Rng rng_{GetParam()};

  /// Random name over a deliberately small alphabet: components "c0".."c6"
  /// and depth 0..4, so prefix sharing, nested prefixes, and last-component
  /// collisions are common rather than vanishing-probability events.
  Name random_name(std::uint64_t max_depth = 4) {
    const std::uint64_t depth = rng_.uniform(max_depth + 1);
    Name name;
    for (std::uint64_t d = 0; d < depth; ++d) {
      name = name.append("c" + std::to_string(rng_.uniform(7)));
    }
    return name;
  }

  /// The route shapes of a scenario with junk routes: one-component
  /// "/providerN" routes (topology::Network::install_routes) beside junk
  /// "xfib<hex>" prefixes of depth 1–3 with numeric components
  /// (sim::Scenario::prepopulate_fib).  Small value ranges make junk
  /// prefixes nest and repeat.
  Name provider_prefix() {
    return Name().append("provider" + std::to_string(rng_.uniform(3)));
  }
  Name junk_prefix() {
    char head[32];
    std::snprintf(head, sizeof(head), "xfib%016llx",
                  static_cast<unsigned long long>(rng_.uniform(6)));
    Name name = Name().append(head);
    const std::uint64_t extra = rng_.uniform(3);
    for (std::uint64_t d = 0; d < extra; ++d) {
      name = name.append_number(rng_.uniform(3));
    }
    return name;
  }

  /// What a scenario's routers look up: "/providerN/objK/cM".
  Name scenario_query() {
    return Name()
        .append("provider" + std::to_string(rng_.uniform(3)))
        .append("obj" + std::to_string(rng_.uniform(4)))
        .append("c" + std::to_string(rng_.uniform(4)));
  }

  /// Interleaves add/set/remove operations with lookups, checking Fib
  /// against LinearFib after every step.  With `scenario_shapes` the
  /// prefixes and queries take the scenario's shapes: junk routes go in
  /// by add_route at face 0 and cost 0xFFFFFF, provider routes by
  /// set_routes (as a reconvergence does), and lookups are chunk names.
  void mutation_sweep(bool scenario_shapes);

  std::vector<FibNextHop> random_hops() {
    std::vector<FibNextHop> hops;
    const std::uint64_t n = 1 + rng_.uniform(3);
    for (std::uint64_t i = 0; i < n; ++i) {
      hops.push_back(FibNextHop{static_cast<FaceId>(rng_.uniform(5)),
                                static_cast<std::uint32_t>(rng_.uniform(4))});
    }
    return hops;
  }
};

INSTANTIATE_TEST_SUITE_P(Seeds, TableDiffProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110, 121, 132, 143, 154,
                                           165, 176));

void expect_same_entry(const FibEntry* fib, const FibEntry* linear,
                       const Name& query) {
  if (linear == nullptr) {
    ASSERT_EQ(fib, nullptr) << "fib matched " << fib->prefix.to_uri()
                             << " for " << query.to_uri()
                             << " but linear matched nothing";
    return;
  }
  ASSERT_NE(fib, nullptr) << "linear matched " << linear->prefix.to_uri()
                           << " for " << query.to_uri()
                           << " but fib matched nothing";
  EXPECT_EQ(fib->prefix, linear->prefix) << "for " << query.to_uri();
  ASSERT_EQ(fib->next_hops.size(), linear->next_hops.size());
  for (std::size_t i = 0; i < fib->next_hops.size(); ++i) {
    EXPECT_EQ(fib->next_hops[i].face, linear->next_hops[i].face);
    EXPECT_EQ(fib->next_hops[i].cost, linear->next_hops[i].cost);
  }
}

TEST_P(TableDiffProperty, TrieLpmEquivalentToLinearLpm) {
  for (int round = 0; round < property_iters(20); ++round) {
    Fib fib;
    LinearFib linear;
    const std::uint64_t inserts = 1 + rng_.uniform(60);
    std::vector<Name> inserted;
    for (std::uint64_t i = 0; i < inserts; ++i) {
      const Name prefix = random_name();
      const FaceId face = static_cast<FaceId>(rng_.uniform(5));
      const auto cost = static_cast<std::uint32_t>(rng_.uniform(4));
      fib.add_route(prefix, face, cost);
      linear.add_route(prefix, face, cost);
      inserted.push_back(prefix);
    }
    ASSERT_EQ(fib.size(), linear.size());
    for (int q = 0; q < 50; ++q) {
      const Name query = random_name(6);
      expect_same_entry(fib.lookup(query), linear.lookup(query), query);
      expect_same_entry(fib.find_exact(query), linear.find_exact(query),
                        query);
    }
    // Every inserted prefix must be exactly findable in both.
    for (const Name& prefix : inserted) {
      expect_same_entry(fib.find_exact(prefix), linear.find_exact(prefix),
                        prefix);
    }
  }
}

void TableDiffProperty::mutation_sweep(bool scenario_shapes) {
  Fib fib;
  LinearFib linear;
  std::vector<Name> pool;
  const int steps = property_iters(400);
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = rng_.uniform(10);
    if (op < 4 || pool.empty()) {  // add a route
      Name prefix;
      if (!scenario_shapes) {
        prefix = random_name();
        const FaceId face = static_cast<FaceId>(rng_.uniform(5));
        const auto cost = static_cast<std::uint32_t>(rng_.uniform(4));
        fib.add_route(prefix, face, cost);
        linear.add_route(prefix, face, cost);
      } else if (rng_.bernoulli(0.3)) {
        prefix = provider_prefix();
        const std::vector<FibNextHop> hops = random_hops();
        fib.set_routes(prefix, hops);
        linear.set_routes(prefix, hops);
      } else {
        prefix = junk_prefix();
        fib.add_route(prefix, 0, 0xFFFFFF);
        linear.add_route(prefix, 0, 0xFFFFFF);
      }
      pool.push_back(prefix);
    } else if (op < 6) {  // set_routes (possibly empty => removal)
      const Name& prefix = pool[rng_.uniform(pool.size())];
      std::vector<FibNextHop> hops;
      if (!rng_.bernoulli(0.25)) hops = random_hops();
      fib.set_routes(prefix, hops);
      linear.set_routes(prefix, hops);
    } else if (op < 8) {  // remove_next_hop (drops entry when last)
      const Name& prefix = pool[rng_.uniform(pool.size())];
      const FaceId face = static_cast<FaceId>(rng_.uniform(5));
      fib.remove_next_hop(prefix, face);
      linear.remove_next_hop(prefix, face);
    } else {  // remove_route
      const std::size_t pick = rng_.uniform(pool.size());
      fib.remove_route(pool[pick]);
      linear.remove_route(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(fib.size(), linear.size()) << "after step " << step;
    const Name query = scenario_shapes ? scenario_query() : random_name(6);
    expect_same_entry(fib.lookup(query), linear.lookup(query), query);
    expect_same_entry(fib.find_exact(query), linear.find_exact(query),
                      query);
  }
  // Drain everything: both tables must end empty.
  for (const Name& prefix : pool) {
    fib.remove_route(prefix);
    linear.remove_route(prefix);
  }
  EXPECT_EQ(fib.size(), 0u);
  EXPECT_EQ(linear.size(), 0u);
  EXPECT_EQ(fib.lookup(random_name(6)), nullptr);
}

TEST_P(TableDiffProperty, InterleavedMutationsStayEquivalent) {
  mutation_sweep(false);
  mutation_sweep(true);
}

TEST_P(TableDiffProperty, HighFanoutRootPromotesAndStaysEquivalent) {
  // Hundreds of distinct one-component prefixes grow the hash index
  // through several rehashes; erasing most of them leaves tombstones
  // that lookups must probe past.  (The name is from the trie FIB's
  // child-table promotion; it stays so the 16 seeded test IDs do.)
  Fib fib;
  LinearFib linear;
  std::vector<Name> prefixes;
  for (int i = 0; i < 400; ++i) {
    const Name prefix =
        Name().append("fan" + std::to_string(GetParam()) + "-" +
                      std::to_string(i));
    fib.add_route(prefix, static_cast<FaceId>(i % 5), 1);
    linear.add_route(prefix, static_cast<FaceId>(i % 5), 1);
    prefixes.push_back(prefix);
  }
  for (const Name& prefix : prefixes) {
    expect_same_entry(fib.lookup(prefix.append("tail")),
                      linear.lookup(prefix.append("tail")), prefix);
  }
  // Erase most of them: the survivors sit among tombstones.
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    if (i % 50 != 0) {
      fib.remove_route(prefixes[i]);
      linear.remove_route(prefixes[i]);
    }
  }
  ASSERT_EQ(fib.size(), linear.size());
  for (const Name& prefix : prefixes) {
    expect_same_entry(fib.lookup(prefix), linear.lookup(prefix), prefix);
  }
}

// ---------------------------------------------------------------------------
// Fixed adversarial cases
// ---------------------------------------------------------------------------

TEST(TableDiff, SharedPrefixesDifferingInLastComponent) {
  Fib fib;
  LinearFib linear;
  const std::vector<std::string> uris = {
      "/a/b/c/d1", "/a/b/c/d2", "/a/b/c", "/a/b/x", "/a"};
  FaceId face = 0;
  for (const auto& uri : uris) {
    fib.add_route(Name(uri), face);
    linear.add_route(Name(uri), face);
    ++face;
  }
  for (const auto& query :
       {"/a/b/c/d1", "/a/b/c/d2", "/a/b/c/d3", "/a/b/c/d1/e", "/a/b/c",
        "/a/b/x/y", "/a/b", "/a", "/z", "/"}) {
    expect_same_entry(fib.lookup(Name(query)), linear.lookup(Name(query)),
                      Name(query));
  }
}

TEST(TableDiff, EmptyNameAndRootEntry) {
  Fib fib;
  LinearFib linear;
  // Lookup of the empty name with no routes at all.
  expect_same_entry(fib.lookup(Name()), linear.lookup(Name()), Name());
  // The root entry ("/") matches everything, including the empty name.
  fib.add_route(Name("/"), 3);
  linear.add_route(Name("/"), 3);
  for (const auto& query : {"/", "/a", "/a/b/c"}) {
    expect_same_entry(fib.lookup(Name(query)), linear.lookup(Name(query)),
                      Name(query));
  }
  expect_same_entry(fib.find_exact(Name()), linear.find_exact(Name()),
                    Name());
  // Removing the root entry empties both.
  fib.remove_route(Name("/"));
  linear.remove_route(Name("/"));
  EXPECT_EQ(fib.size(), 0u);
  EXPECT_EQ(fib.lookup(Name("/a")), nullptr);
  EXPECT_EQ(linear.lookup(Name("/a")), nullptr);
}

TEST(TableDiff, SingleComponentNames) {
  Fib fib;
  LinearFib linear;
  fib.add_route(Name("/a"), 1);
  linear.add_route(Name("/a"), 1);
  fib.add_route(Name("/ab"), 2);  // "ab" is NOT an extension of "a":
  linear.add_route(Name("/ab"), 2);  // components are atoms, not bytes
  expect_same_entry(fib.lookup(Name("/a")), linear.lookup(Name("/a")),
                    Name("/a"));
  expect_same_entry(fib.lookup(Name("/ab")), linear.lookup(Name("/ab")),
                    Name("/ab"));
  expect_same_entry(fib.lookup(Name("/ab/x")), linear.lookup(Name("/ab/x")),
                    Name("/ab/x"));
  EXPECT_EQ(fib.lookup(Name("/b")), nullptr);
}

TEST(TableDiff, ShallowPrefixAddedAndRemovedKeepsDeepEntryReachable) {
  // Insert a deep prefix first, then a shallower one on the same path.
  Fib fib;
  LinearFib linear;
  fib.add_route(Name("/p/q/r/s/t"), 1);
  linear.add_route(Name("/p/q/r/s/t"), 1);
  fib.add_route(Name("/p/q"), 2);
  linear.add_route(Name("/p/q"), 2);
  for (const auto& query :
       {"/p/q/r/s/t", "/p/q/r/s/t/u", "/p/q/r", "/p/q", "/p"}) {
    expect_same_entry(fib.lookup(Name(query)), linear.lookup(Name(query)),
                      Name(query));
  }
  // Removing the shallow entry must leave the deep one reachable.
  fib.remove_route(Name("/p/q"));
  linear.remove_route(Name("/p/q"));
  expect_same_entry(fib.lookup(Name("/p/q/r/s/t")),
                    linear.lookup(Name("/p/q/r/s/t")), Name("/p/q/r/s/t"));
  EXPECT_EQ(fib.lookup(Name("/p/q/r")), nullptr);
}

// ---------------------------------------------------------------------------
// Cost regressions: the latent O(n) scans must stay gone.
// ---------------------------------------------------------------------------

TEST(TableCost, FibLookupWorkIsBoundedByNameDepthNotTableSize) {
  Fib fib;
  for (int i = 0; i < 10000; ++i) {
    fib.add_route(Name().append("p" + std::to_string(i)).append("x"), 1);
  }
  const Name query("/p123/x/chunk/7");
  const auto before = fib.counters();
  for (int i = 0; i < 100; ++i) fib.lookup(query);
  const auto after = fib.counters();
  EXPECT_EQ(after.lookups - before.lookups, 100u);
  // Each lookup probes at most components+1 prefix lengths regardless of
  // the 10^4 entries resident.
  EXPECT_LE(after.nodes_visited - before.nodes_visited,
            100u * (query.size() + 1));
}

TEST(TableCost, FibProbesOnlyPrefixLengthsThatHoldEntries) {
  // One probe per prefix length holding an entry, up to the query's
  // length: with only 2-component routes, a 6-component lookup probes
  // once; with none left, it probes nothing.
  Fib fib;
  fib.add_route(Name("/a/b"), 1);
  fib.add_route(Name("/c/d"), 2);
  fib.add_route(Name("/e/f/g/h/i/j/k"), 3);  // longer than the query
  const Name query("/a/b/c/d/e/f");
  auto before = fib.counters().nodes_visited;
  ASSERT_NE(fib.lookup(query), nullptr);
  EXPECT_EQ(fib.counters().nodes_visited - before, 1u);
  fib.remove_route(Name("/a/b"));
  fib.remove_next_hop(Name("/c/d"), 2);  // last hop: drops the entry
  before = fib.counters().nodes_visited;
  EXPECT_EQ(fib.lookup(query), nullptr);
  EXPECT_EQ(fib.counters().nodes_visited - before, 0u);
}

TEST(TableCost, PitLookupAndInsertCountsArePinned) {
  Pit pit;
  const Name a("/pit-cost/a");
  const Name b("/pit-cost/b");
  EXPECT_EQ(pit.find(a), nullptr);          // 1 lookup, miss
  pit.get_or_create(a);                     // 1 lookup + 1 insert
  pit.get_or_create(a);                     // 1 lookup, no insert
  EXPECT_NE(pit.find(a), nullptr);          // 1 lookup
  pit.get_or_create(b);                     // 1 lookup + 1 insert
  pit.erase(a);                             // not counted as a lookup
  EXPECT_EQ(pit.counters().lookups, 5u);
  EXPECT_EQ(pit.counters().inserts, 2u);
}

TEST(TableCost, PitExpiryPollingIsAmortizedConstantNotTableScan) {
  Pit pit;
  constexpr int kEntries = 2000;
  for (int i = 0; i < kEntries; ++i) {
    PitEntry& entry = pit.get_or_create(Name("/pit-exp").append_number(i));
    pit.set_expiry(entry, static_cast<event::Time>(1000 + i));
  }
  // Steady-state sampling: each poll examines the heap top only — the
  // total work over many polls stays far below polls * table-size.
  const auto before = pit.counters().expiry_polls;
  for (int poll = 0; poll < 100; ++poll) {
    const auto min = pit.min_expiry();
    ASSERT_TRUE(min.has_value());
    EXPECT_EQ(*min, 1000u);
  }
  EXPECT_EQ(pit.counters().expiry_polls - before, 100u);

  // Erase-heavy phase: each stale record is discarded at most once, so
  // total poll work is bounded by set_expiry calls + polls, never
  // polls * entries.
  for (int i = 0; i < kEntries; ++i) {
    pit.erase(Name("/pit-exp").append_number(i));
    pit.min_expiry();
  }
  EXPECT_LE(pit.counters().expiry_polls, 2u * kEntries + 200u);
  EXPECT_FALSE(pit.min_expiry().has_value());
}

TEST(TableCost, PitSlotReuseKeepsEntryReferencesStable) {
  Pit pit;
  PitEntry& first = pit.get_or_create(Name("/reuse/a"));
  const PitEntry* address = &first;
  pit.erase(Name("/reuse/a"));
  // The freed slot is recycled for the next insert: same storage, fresh
  // entry (the arena keeps in_records capacity, not contents).
  PitEntry& second = pit.get_or_create(Name("/reuse/b"));
  EXPECT_EQ(&second, address);
  EXPECT_TRUE(second.in_records.empty());
  EXPECT_EQ(second.name, Name("/reuse/b"));
}

TEST(TableCost, CsEvictionIsCountedAndBounded) {
  ContentStore cs(4);
  for (int i = 0; i < 10; ++i) {
    Data data;
    data.name = Name("/cs-evict").append_number(i);
    data.content_size = 8;
    cs.insert(data);
  }
  EXPECT_EQ(cs.size(), 4u);
  EXPECT_EQ(cs.evictions(), 6u);  // one O(1) tail-pop per overflow
  // The four most recent survive.
  EXPECT_TRUE(cs.contains(Name("/cs-evict/9")));
  EXPECT_FALSE(cs.contains(Name("/cs-evict/0")));
}

}  // namespace
}  // namespace tactic::ndn
