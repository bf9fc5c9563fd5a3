#include "ndn/fib.hpp"

#include <algorithm>

namespace tactic::ndn {

namespace {

/// Orders hops by (cost, face): the order the forwarder fails over in.
void sort_hops(std::vector<FibNextHop>& hops) {
  std::sort(hops.begin(), hops.end(),
            [](const FibNextHop& a, const FibNextHop& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.face < b.face;
            });
}

/// Adds `face` at `cost` (re-costing it when already present), keeping the
/// hop list sorted.
void add_hop(std::vector<FibNextHop>& hops, FaceId face, std::uint32_t cost) {
  const auto existing =
      std::find_if(hops.begin(), hops.end(),
                   [face](const FibNextHop& hop) { return hop.face == face; });
  if (existing != hops.end()) {
    existing->cost = cost;
  } else {
    hops.push_back(FibNextHop{face, cost});
  }
  sort_hops(hops);
}

/// Drops `face` from the hop list.
void remove_hop(std::vector<FibNextHop>& hops, FaceId face) {
  hops.erase(std::remove_if(hops.begin(), hops.end(),
                            [face](const FibNextHop& hop) {
                              return hop.face == face;
                            }),
             hops.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// LinearFib — the retained reference implementation (unchanged semantics).
// ---------------------------------------------------------------------------

void LinearFib::add_route(const Name& prefix, FaceId next_hop,
                          std::uint32_t cost) {
  auto [it, inserted] = entries_.try_emplace(prefix);
  Entry& entry = it->second;
  if (inserted) entry.prefix = prefix;
  add_hop(entry.next_hops, next_hop, cost);
}

void LinearFib::remove_next_hop(const Name& prefix, FaceId next_hop) {
  const auto it = entries_.find(prefix);
  if (it == entries_.end()) return;
  remove_hop(it->second.next_hops, next_hop);
  if (it->second.next_hops.empty()) entries_.erase(it);
}

void LinearFib::remove_route(const Name& prefix) { entries_.erase(prefix); }

void LinearFib::set_routes(const Name& prefix,
                           std::vector<NextHop> next_hops) {
  if (next_hops.empty()) {
    entries_.erase(prefix);
    return;
  }
  sort_hops(next_hops);
  Entry& entry = entries_[prefix];
  entry.prefix = prefix;
  entry.next_hops = std::move(next_hops);
}

const LinearFib::Entry* LinearFib::lookup(const Name& name) const {
  for (std::size_t len = name.size() + 1; len-- > 0;) {
    const auto it = entries_.find(name.prefix(len));
    if (it != entries_.end()) return &it->second;
  }
  return nullptr;
}

const LinearFib::Entry* LinearFib::find_exact(const Name& prefix) const {
  const auto it = entries_.find(prefix);
  return it == entries_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Fib — prefix-hash index.
// ---------------------------------------------------------------------------

std::uint32_t Fib::find_slot(const Name& prefix) const {
  return index_.find(prefix.id_hash(), [&](std::uint32_t s) {
    return entries_[s].prefix == prefix;
  });
}

Fib::Entry& Fib::entry_for(const Name& prefix) {
  std::uint32_t s = find_slot(prefix);
  if (s != util::HashIndex::kNpos) return entries_[s];
  s = entries_.acquire();
  entries_[s].prefix = prefix;
  index_.insert(prefix.id_hash(), s);
  if (length_counts_.size() <= prefix.size()) {
    length_counts_.resize(prefix.size() + 1, 0);
  }
  ++length_counts_[prefix.size()];
  return entries_[s];
}

void Fib::free_slot(std::uint32_t s) {
  Entry& entry = entries_[s];
  index_.erase(entry.prefix.id_hash(), [s](std::uint32_t v) { return v == s; });
  --length_counts_[entry.prefix.size()];
  while (!length_counts_.empty() && length_counts_.back() == 0) {
    length_counts_.pop_back();
  }
  entry.prefix.clear();
  entry.next_hops.clear();  // keeps capacity for the slot's next tenant
  entries_.release(s);
}

void Fib::add_route(const Name& prefix, FaceId next_hop, std::uint32_t cost) {
  add_hop(entry_for(prefix).next_hops, next_hop, cost);
}

void Fib::remove_next_hop(const Name& prefix, FaceId next_hop) {
  const std::uint32_t s = find_slot(prefix);
  if (s == util::HashIndex::kNpos) return;
  remove_hop(entries_[s].next_hops, next_hop);
  if (entries_[s].next_hops.empty()) free_slot(s);
}

void Fib::remove_route(const Name& prefix) {
  const std::uint32_t s = find_slot(prefix);
  if (s != util::HashIndex::kNpos) free_slot(s);
}

void Fib::set_routes(const Name& prefix, std::vector<NextHop> next_hops) {
  if (next_hops.empty()) {
    remove_route(prefix);
    return;
  }
  sort_hops(next_hops);
  entry_for(prefix).next_hops = std::move(next_hops);
}

const Fib::Entry* Fib::lookup(const Name& name) const {
  ++counters_.lookups;
  const std::span<const ComponentId> ids = name.component_ids();
  // Fold the prefix hashes shortest-first, probing only the lengths that
  // hold entries; the last hit is the longest match.
  const std::size_t longest = std::min(ids.size() + 1, length_counts_.size());
  const Entry* best = nullptr;
  std::uint64_t h = Name::kIdHashSeed;
  for (std::size_t len = 0; len < longest; ++len) {
    if (len > 0) h = Name::extend_id_hash(h, ids[len - 1]);
    if (length_counts_[len] == 0) continue;
    ++counters_.nodes_visited;
    const std::uint32_t s = index_.find(h, [&](std::uint32_t v) {
      const Name& prefix = entries_[v].prefix;
      return prefix.size() == len && prefix.is_prefix_of(name);
    });
    if (s != util::HashIndex::kNpos) best = &entries_[s];
  }
  return best;
}

const Fib::Entry* Fib::find_exact(const Name& prefix) const {
  const std::uint32_t s = find_slot(prefix);
  return s == util::HashIndex::kNpos ? nullptr : &entries_[s];
}

}  // namespace tactic::ndn
