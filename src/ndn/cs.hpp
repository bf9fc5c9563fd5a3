#pragma once
// Content Store: the per-router LRU cache that makes a core router a
// "content router" (R_C^c) for the objects it holds.
//
// A slot holds content, by value: the fields of a Data packet that the
// provider published and a cache hit must reproduce (name, content size,
// access level, provider key locator, signature size and the shared
// signature handle).  The response envelope — tag echo, flag F, attached
// NACK, from_cache — belongs to one request, so it is never stored:
// insert() copies the content fields out of whatever packet arrives, and
// a hit builds its response in a fresh pool slot where respond() stamps
// the requester's envelope.  Which Data fields are content and which are
// envelope is decided here and nowhere else.  Registration responses are
// never cached (AccessControlPolicy::may_cache refuses them), so a served
// packet is never one.
//
// A slot fits one cache line: the Name keeps its component IDs inline,
// the sizes are 32-bit, and the key locator is kept as its NameTable ID
// (one table entry per provider, not a string per entry; the ID is only
// a handle to the text, never hashed or compared).  Signature handles
// live in a per-store column indexed by slot, which a store allocates
// when it first caches a signed Data (ProviderConfig::sign_content).
// Storage is a util::Slab of reusable slots with an intrusive LRU list
// and an externalized-key hash index, the PIT's layout; the LRU list is
// also the record of which slots are live.  A recycled slot keeps its
// Name capacity, so steady-state insert/evict allocates nothing.  A full
// store evicts its LRU tail before it takes a slot, so the slab never
// holds more than `capacity` slots, and a store that never caches
// allocates nothing.

#include <cstdint>
#include <memory>
#include <vector>

#include "ndn/name.hpp"
#include "ndn/packet.hpp"
#include "util/bytes.hpp"
#include "util/hash_index.hpp"
#include "util/slab.hpp"

namespace tactic::ndn {

class ContentStore {
 public:
  /// One cached content object.
  struct Entry {
    Name name;
    std::uint32_t content_size = 0;
    std::uint32_t access_level = 0;
    /// NameTable ID of Data::provider_key_locator (a text handle only).
    ComponentId key_locator = kInvalidComponent;
    std::uint32_t signature_size = 0;
    /// The slot this entry occupies: its row in the signature column.
    std::uint32_t slot = 0;
  };

  /// `capacity` in packets; 0 disables caching entirely.
  explicit ContentStore(std::size_t capacity = 1000);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }

  /// Exact-name lookup.  A hit refreshes LRU order and returns the
  /// entry, valid until the next insert.  Counters are updated (a store
  /// of capacity 0 counts every lookup as a miss).
  const Entry* find(const Name& name);

  /// The content signature cached with `entry`; null when its Data
  /// carried none.
  const std::shared_ptr<const util::Bytes>& signature(
      const Entry& entry) const;

  /// Writes `entry`'s content and `request`'s envelope into `out`, a
  /// default-state packet (a fresh pool slot): the request's tag echo
  /// and F, from_cache set, no NACK.
  void respond(const Entry& entry, const Interest& request, Data& out) const;

  /// Copies the content fields of `data` into a slot, or LRU-refreshes
  /// the entry already cached under its name.  The envelope is ignored.
  /// A full store first evicts its least recently used entry.  Content
  /// or signature sizes beyond 32 bits are not cached.
  void insert(const Data& data);

  bool contains(const Name& name) const {
    return find_slot(name) != util::HashIndex::kNpos;
  }

  /// Drops every cached object (crash semantics).  Hit/miss counters are
  /// cumulative and survive — they describe the run, not the store.
  void clear();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Capacity evictions performed (always O(1): the LRU tail pops — never
  /// a table scan).  For sim::RouterOps; never fingerprinted.
  std::uint64_t evictions() const { return evictions_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    Entry entry;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
  };
  static_assert(sizeof(Slot) <= 64, "a Content Store slot fits one cache line");

  std::uint32_t find_slot(const Name& name) const {
    return index_.find(name.id_hash(), [&](std::uint32_t s) {
      return slots_[s].entry.name == name;
    });
  }
  void free_slot(std::uint32_t s);
  void lru_unlink(std::uint32_t s);
  void lru_push_front(std::uint32_t s);

  std::size_t capacity_;
  util::Slab<Slot> slots_;  // stable addresses
  /// Signature handle per slot; empty until a signed Data is cached.
  std::vector<std::shared_ptr<const util::Bytes>> signatures_;
  /// id_hash -> slot; keys (names) live in the slots.
  util::HashIndex index_;
  std::uint32_t lru_head_ = kNil;  // most recently used
  std::uint32_t lru_tail_ = kNil;  // least recently used
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace tactic::ndn
