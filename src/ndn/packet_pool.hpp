#pragma once
// Per-router packet pool: slab arenas behind shared_ptr handles.
//
// The zero-copy packet path allocates a packet once and shares it along
// its whole route (docs/ARCHITECTURE.md, "Packet memory model").  Two
// heap costs would survive naive make_shared<const Interest>: the
// control-block allocation per packet, and the capacity of the packet's
// own vectors/strings dying with it.  The pool removes both:
//
//  - packet objects live in a util::Slab (stable addresses); a freed
//    slot is reset field-wise (reset_for_reuse) but keeps its heap
//    capacity, so re-acquiring it allocates nothing;
//  - each acquire hands out an *aliasing* shared_ptr whose control block
//    (fused with a small Lease object that returns the slot on the last
//    release) comes from a free list of fixed-size blocks.
//
// Steady state: acquire + release touch only free-list vectors — zero
// heap traffic per packet (ci/alloc.sh pins this).  A slab creates its
// slots and block store on its first acquire, so a node that never
// builds a packet of some kind pays nothing for it.  Pooling can be
// switched off globally (set_pooling_enabled(false)); packets then come
// from plain make_shared.  The two modes are behaviourally identical —
// ci/parity.sh runs the fingerprint corpus both ways.
//
// Cow<T> is the copy-on-write seam: policies receive Cow handles and may
// call edit().  A uniquely-held packet (the common case: an arriving
// packet whose only reference is the pipeline's own, or a cache-hit
// response the forwarder just built) is mutated in place; a shared one
// (aliased by sibling PIT fan-out sends, a link frame or an app) is
// first cloned into a fresh pool slot.  Readers of the original handle
// never observe an edit.  The ContentStore holds no packets: it copies
// content fields by value.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ndn/packet.hpp"
#include "util/slab.hpp"

namespace tactic::ndn {

/// Pool traffic counters, aggregated into sim::RouterOps per router
/// class.  Never fingerprinted.
struct PoolCounters {
  std::uint64_t acquires = 0;       // packets handed out
  std::uint64_t reuses = 0;         // ... of which recycled a slot
  std::uint64_t refills = 0;        // ... of which grew the slab
  std::uint64_t cow_clones = 0;     // clone_for_edit on a shared packet
  std::uint64_t inplace_edits = 0;  // edit() on a uniquely-held packet

  PoolCounters& operator+=(const PoolCounters& other) {
    acquires += other.acquires;
    reuses += other.reuses;
    refills += other.refills;
    cow_clones += other.cow_clones;
    inplace_edits += other.inplace_edits;
    return *this;
  }
};

namespace detail {

/// Fixed-size block recycler for the allocate_shared nodes (control block
/// fused with the Lease).  Shared via shared_ptr so blocks freed by
/// late-dying packets (after their pool is gone) still land safely.
struct BlockStore {
  std::vector<void*> free;
  std::size_t block_size = 0;

  ~BlockStore() {
    for (void* p : free) ::operator delete(p);
  }
};

template <typename U>
struct BlockAllocator {
  using value_type = U;

  std::shared_ptr<BlockStore> store;

  explicit BlockAllocator(std::shared_ptr<BlockStore> s)
      : store(std::move(s)) {}
  template <typename V>
  BlockAllocator(const BlockAllocator<V>& other)  // NOLINT: rebind
      : store(other.store) {}

  U* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(U);
    if (n == 1) {
      if (store->block_size == 0) store->block_size = bytes;
      if (bytes == store->block_size && !store->free.empty()) {
        void* p = store->free.back();
        store->free.pop_back();
        return static_cast<U*>(p);
      }
    }
    return static_cast<U*>(::operator new(bytes));
  }

  void deallocate(U* p, std::size_t n) {
    const std::size_t bytes = n * sizeof(U);
    if (n == 1 && bytes == store->block_size) {
      store->free.push_back(p);
      return;
    }
    ::operator delete(p);
  }

  template <typename V>
  bool operator==(const BlockAllocator<V>& other) const {
    return store == other.store;
  }
  template <typename V>
  bool operator!=(const BlockAllocator<V>& other) const {
    return store != other.store;
  }
};

/// One slab of reusable T objects.  The shared core and block store
/// are created on the first acquire.
template <typename T>
class PacketSlab {
 public:
  /// A fresh (default-state) mutable packet.  The returned shared_ptr
  /// aliases the slot; the fused Lease returns the slot to the slab on
  /// the last release, after reset_for_reuse().
  std::shared_ptr<T> acquire(PoolCounters& counters) {
    if (!core_) {
      core_ = std::make_shared<Core>();
      blocks_ = std::make_shared<BlockStore>();
    }
    ++counters.acquires;
    ++(core_->slots.free_count() > 0 ? counters.reuses : counters.refills);
    const std::uint32_t idx = core_->slots.acquire();
    T* slot = &core_->slots[idx];
    auto lease = std::allocate_shared<Lease>(
        BlockAllocator<Lease>{blocks_}, core_, idx);
    return std::shared_ptr<T>(std::move(lease), slot);
  }

  /// Free slots currently available for reuse (tests/diagnostics).
  std::size_t free_count() const {
    return core_ ? core_->slots.free_count() : 0;
  }
  /// Slots ever created (live + free).
  std::size_t slot_count() const { return core_ ? core_->slots.size() : 0; }

  /// Crash hygiene: drop the retained heap capacity of every *free* slot
  /// (live packets are unaffected — they belong to in-flight frames or
  /// other nodes).  The slab itself shrinks to nothing once the last
  /// in-flight lease dies.
  void wipe_free_slots() {
    if (core_) core_->slots.for_each_free([](T& slot) { slot = T{}; });
  }

 private:
  struct Core {
    util::Slab<T> slots;  // stable addresses; freed slots keep capacity
  };

  struct Lease {
    std::shared_ptr<Core> core;
    std::uint32_t idx;

    Lease(std::shared_ptr<Core> c, std::uint32_t i)
        : core(std::move(c)), idx(i) {}
    ~Lease() {
      core->slots[idx].reset_for_reuse();
      core->slots.release(idx);
    }
  };

  std::shared_ptr<Core> core_;
  std::shared_ptr<BlockStore> blocks_;
};

}  // namespace detail

class PacketPool {
 public:
  /// Fresh mutable packets in default state.  Freeze into an
  /// InterestPtr/DataPtr/NackPtr (implicit) before handing to the
  /// forwarding plane.
  std::shared_ptr<Interest> make_interest() {
    if (!pooling_enabled()) {
      ++counters_.acquires;
      return std::make_shared<Interest>();
    }
    return interests_.acquire(counters_);
  }
  std::shared_ptr<Data> make_data() {
    if (!pooling_enabled()) {
      ++counters_.acquires;
      return std::make_shared<Data>();
    }
    return datas_.acquire(counters_);
  }
  std::shared_ptr<Nack> make_nack() {
    if (!pooling_enabled()) {
      ++counters_.acquires;
      return std::make_shared<Nack>();
    }
    return nacks_.acquire(counters_);
  }

  /// COW backing: a mutable copy of `src` in a fresh slot, caches
  /// dropped (the caller is about to mutate).
  std::shared_ptr<Interest> clone_for_edit(const Interest& src) {
    ++counters_.cow_clones;
    auto copy = make_interest();
    --counters_.acquires;  // counted as a clone, not a fresh acquire
    *copy = src;           // field copy; slot capacity absorbs it
    copy->invalidate_caches();
    return copy;
  }
  std::shared_ptr<Data> clone_for_edit(const Data& src) {
    ++counters_.cow_clones;
    auto copy = make_data();
    --counters_.acquires;
    *copy = src;
    copy->invalidate_caches();
    return copy;
  }

  void note_inplace_edit() { ++counters_.inplace_edits; }

  const PoolCounters& counters() const { return counters_; }

  /// Crash semantics: wipe the volatile pool state (retained capacities
  /// of free slots).  Live packets held by other nodes or in-flight
  /// frames are untouched; their slots recycle normally when released.
  void wipe_volatile() {
    interests_.wipe_free_slots();
    datas_.wipe_free_slots();
    nacks_.wipe_free_slots();
  }

  /// Tests/diagnostics.
  std::size_t free_interest_slots() const { return interests_.free_count(); }
  std::size_t free_data_slots() const { return datas_.free_count(); }
  std::size_t interest_slot_count() const { return interests_.slot_count(); }
  std::size_t data_slot_count() const { return datas_.slot_count(); }

  /// Global pooling switch (process-wide; default on).  Off = plain
  /// make_shared per packet.  Strictly an allocation strategy: behaviour
  /// and fingerprints are identical in both modes.
  static void set_pooling_enabled(bool enabled) {
    pooling_enabled_ = enabled;
  }
  static bool pooling_enabled() { return pooling_enabled_; }

 private:
  static inline bool pooling_enabled_ = true;

  detail::PacketSlab<Interest> interests_;
  detail::PacketSlab<Data> datas_;
  detail::PacketSlab<Nack> nacks_;
  PoolCounters counters_;
};

/// Copy-on-write handle around a shared immutable packet.
template <typename T>
class Cow {
 public:
  Cow(std::shared_ptr<const T> ptr, PacketPool& pool)
      : ptr_(std::move(ptr)), pool_(&pool) {}

  const T& operator*() const { return *ptr_; }
  const T* operator->() const { return ptr_.get(); }
  const std::shared_ptr<const T>& shared() const { return ptr_; }
  /// Releases the (possibly cloned) handle to the caller.
  std::shared_ptr<const T> take() { return std::move(ptr_); }

  /// Mutable access.  In place when this handle is the only owner;
  /// otherwise clones into a fresh pool slot first, so aliased readers
  /// (sibling fan-out sends) never observe the edit.  Either way the
  /// packet's memoized caches are dropped.
  T& edit() {
    if (ptr_.use_count() == 1) {
      // Sole owner: pool slots are created non-const, so shedding the
      // const view is defined behaviour.
      T* mutable_packet = const_cast<T*>(ptr_.get());
      mutable_packet->invalidate_caches();
      pool_->note_inplace_edit();
      return *mutable_packet;
    }
    std::shared_ptr<T> clone = pool_->clone_for_edit(*ptr_);
    T& ref = *clone;
    ptr_ = std::move(clone);
    return ref;
  }

 private:
  std::shared_ptr<const T> ptr_;
  PacketPool* pool_;
};

using CowInterest = Cow<Interest>;
using CowData = Cow<Data>;

}  // namespace tactic::ndn
