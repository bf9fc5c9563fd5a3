#pragma once
// Forwarding Information Base: longest-prefix-match routing of Interests
// toward providers, with equal-cost multipath next hops for failover.
//
// Two interchangeable lookup structures live here:
//
//  - `Fib` (the default, Impl::kPrefixHash): a flat prefix-hash index.
//    Entries live in a util::Slab; one util::HashIndex (the index the
//    PIT and CS use) maps each prefix's Name::id_hash() to its slot, and a count of entries per prefix length tells lookup()
//    which lengths to probe.  A lookup folds the query's component IDs
//    into prefix hashes in one pass (Name::extend_id_hash), probes only
//    the lengths that hold entries, keeps the longest hit, and allocates
//    nothing (docs/ARCHITECTURE.md, "Name interning and table
//    structures").
//  - `LinearFib`: the original hash-map implementation that probes every
//    prefix length, retained as the differential reference.  The
//    property suite in tests/table_diff_test.cpp asserts Fib LPM ≡ linear
//    LPM over randomized and adversarial prefix sets, and `Fib` can be
//    switched wholesale to it (Impl::kLinear) for end-to-end equivalence
//    runs (`fuzz_scenarios --bigtables`).
//
// Both structures implement identical semantics; which one backs a router
// is unobservable in fingerprints, verdicts, and traces.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ndn/name.hpp"
#include "util/hash_index.hpp"
#include "util/slab.hpp"

namespace tactic::ndn {

/// Per-node face identifier (index into the node's face table).
using FaceId = std::uint32_t;
constexpr FaceId kInvalidFace = ~0u;

struct FibNextHop {
  FaceId face = kInvalidFace;
  std::uint32_t cost = 0;  // routing metric (hop count)
};

struct FibEntry {
  Name prefix;
  /// Candidate upstream faces, sorted by (cost, face).  The forwarder
  /// tries them in order and fails over when a link refuses the frame
  /// (down or queue-full).
  std::vector<FibNextHop> next_hops;

  /// Best (lowest-cost) next hop; kInvalidFace when empty.
  FaceId next_hop() const {
    return next_hops.empty() ? kInvalidFace : next_hops.front().face;
  }
};

/// The original FIB: unordered_map keyed by prefix Name, longest-prefix
/// match by probing every prefix length longest-first.  O(#components)
/// hash lookups per match, each building and hashing a prefix copy.  Kept
/// as the executable specification Fib is differentially tested against.
class LinearFib {
 public:
  using NextHop = FibNextHop;
  using Entry = FibEntry;

  void add_route(const Name& prefix, FaceId next_hop, std::uint32_t cost = 0);
  void remove_next_hop(const Name& prefix, FaceId next_hop);
  void remove_route(const Name& prefix);
  void set_routes(const Name& prefix, std::vector<NextHop> next_hops);
  const Entry* lookup(const Name& name) const;
  const Entry* find_exact(const Name& prefix) const;
  std::size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<Name, Entry> entries_;
};

class Fib {
 public:
  using NextHop = FibNextHop;
  using Entry = FibEntry;

  /// Which lookup structure backs this FIB.  Semantics are identical; the
  /// linear reference exists for differential testing and benchmarking.
  enum class Impl { kPrefixHash, kLinear };

  /// Selects the backing structure.  Only legal while the table is empty
  /// (the switch does not migrate entries); throws std::logic_error
  /// otherwise.
  void set_impl(Impl impl);
  Impl impl() const { return impl_; }

  /// Adds (or updates the cost of) one next hop for `prefix`, keeping the
  /// hop list sorted by (cost, face).
  void add_route(const Name& prefix, FaceId next_hop, std::uint32_t cost = 0);

  /// Removes one next hop; drops the entry when no hops remain.
  void remove_next_hop(const Name& prefix, FaceId next_hop);

  /// Removes the whole entry.
  void remove_route(const Name& prefix);

  /// Replaces the entry's hop set wholesale (route recomputation).
  void set_routes(const Name& prefix, std::vector<NextHop> next_hops);

  /// Longest-prefix match; nullptr when no entry covers `name`.  One hash
  /// probe per prefix length that holds an entry (Linear: one map probe
  /// per prefix length).
  ///
  /// The returned pointer (like find_exact()'s) stays valid until that
  /// route is removed — by remove_route, or by remove_next_hop or
  /// set_routes leaving it no hop.  Slab slots never move (nor do the
  /// linear map's nodes), but a removed route's slot is recycled by the
  /// next new prefix.
  const Entry* lookup(const Name& name) const;

  /// Exact-prefix find (no LPM).
  const Entry* find_exact(const Name& prefix) const;

  std::size_t size() const;

  /// Hot-path work counters, for regression tests pinning lookup cost and
  /// for sim::RouterOps aggregation.  Never fingerprinted.
  struct Counters {
    std::uint64_t lookups = 0;  // lookup() calls
    /// Hash probes made by lookups: one per prefix length that holds an
    /// entry, up to the query's length.  (The name predates the prefix
    /// index, when it counted trie nodes; perfbench reads it as
    /// `ndn.fib_nodes_per_lookup`.)
    std::uint64_t nodes_visited = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  /// Slab slot holding exactly `prefix`, or HashIndex::kNpos.
  std::uint32_t find_slot(const Name& prefix) const;
  /// The entry for `prefix`, created (hop list empty) if absent.
  Entry& entry_for(const Name& prefix);
  /// Unindexes slot `s` and returns it to the slab.
  void free_slot(std::uint32_t s);

  Impl impl_ = Impl::kPrefixHash;
  LinearFib linear_;  // backing store in Impl::kLinear mode

  /// Entry slab; freed slots keep their hop-vector capacity for reuse.
  util::Slab<Entry> entries_;
  /// prefix id_hash -> slot; collisions resolve against the slot's prefix.
  util::HashIndex index_;
  /// Entries per prefix length; no trailing zero, so size() - 1 is the
  /// longest prefix held.
  std::vector<std::uint32_t> length_counts_;

  mutable Counters counters_;
};

}  // namespace tactic::ndn
