// Packet pool and copy-on-write seam (docs/ARCHITECTURE.md, "Packet
// memory model"): slot recycling, COW aliasing, cached-wire
// invalidation, crash wipe, and double-run determinism with pooling on.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "ndn/packet_pool.hpp"
#include "sim/scenario.hpp"
#include "testing/fingerprint.hpp"
#include "testing/generator.hpp"

namespace tactic::ndn {
namespace {

/// Restores the process-wide pooling switch on scope exit.
struct PoolingGuard {
  bool saved = PacketPool::pooling_enabled();
  ~PoolingGuard() { PacketPool::set_pooling_enabled(saved); }
};

TEST(PacketPool, ReleaseRecyclesSlotWithCapacity) {
  PoolingGuard guard;
  PacketPool::set_pooling_enabled(true);
  PacketPool pool;

  auto first = pool.make_interest();
  first->name = Name("/pool/reuse/c0");
  first->nonce = 7;
  const Interest* address = first.get();
  EXPECT_EQ(pool.counters().acquires, 1u);
  EXPECT_EQ(pool.counters().refills, 1u);
  EXPECT_EQ(pool.free_interest_slots(), 0u);

  first.reset();  // last release: slot returns to the free list
  EXPECT_EQ(pool.free_interest_slots(), 1u);

  auto second = pool.make_interest();
  EXPECT_EQ(second.get(), address);  // same slot, recycled
  EXPECT_EQ(pool.counters().reuses, 1u);
  EXPECT_EQ(pool.counters().refills, 1u);  // no slab growth
  // reset_for_reuse cleared the fields.
  EXPECT_TRUE(second->name.empty());
  EXPECT_EQ(second->nonce, 0u);
  EXPECT_EQ(pool.interest_slot_count(), 1u);
}

TEST(PacketPool, SlotOutlivesPoolHandleRefcount) {
  PoolingGuard guard;
  PacketPool::set_pooling_enabled(true);
  PacketPool pool;

  InterestPtr keeper;
  {
    auto interest = pool.make_interest();
    interest->name = Name("/pool/refcount");
    keeper = std::move(interest);  // freeze into the shared const view
  }
  EXPECT_EQ(keeper.use_count(), 1);
  EXPECT_EQ(pool.free_interest_slots(), 0u);  // still live
  InterestPtr alias = keeper;
  EXPECT_EQ(keeper.use_count(), 2);
  alias.reset();
  keeper.reset();
  EXPECT_EQ(pool.free_interest_slots(), 1u);  // last release recycled it
}

TEST(PacketPool, CowEditsInPlaceWhenUnique) {
  PoolingGuard guard;
  PacketPool::set_pooling_enabled(true);
  PacketPool pool;

  auto interest = pool.make_interest();
  interest->name = Name("/cow/unique");
  CowInterest cow(InterestPtr(std::move(interest)), pool);
  const Interest* address = cow.shared().get();
  cow.edit().nonce = 42;
  EXPECT_EQ(cow.shared().get(), address);  // no clone
  EXPECT_EQ(cow->nonce, 42u);
  EXPECT_EQ(pool.counters().inplace_edits, 1u);
  EXPECT_EQ(pool.counters().cow_clones, 0u);
}

TEST(PacketPool, CowClonesWhenAliasedAndReaderIsUntouched) {
  PoolingGuard guard;
  PacketPool::set_pooling_enabled(true);
  PacketPool pool;

  auto data = pool.make_data();
  data->name = Name("/cow/aliased");
  data->flag_f = 0.0;
  DataPtr reader = std::move(data);  // e.g. a sibling fan-out send
  CowData cow(DataPtr(reader), pool);
  ASSERT_EQ(reader.use_count(), 2);

  cow.edit().flag_f = 0.75;

  EXPECT_NE(cow.shared().get(), reader.get());  // cloned into a new slot
  EXPECT_EQ(cow->flag_f, 0.75);
  EXPECT_EQ(reader->flag_f, 0.0);  // aliased reader never observes edits
  EXPECT_EQ(reader->name, cow->name);
  EXPECT_EQ(pool.counters().cow_clones, 1u);

  // The clone is uniquely held now: further edits stay in place.
  const Data* clone_address = cow.shared().get();
  cow.edit().flag_f = 0.5;
  EXPECT_EQ(cow.shared().get(), clone_address);
  EXPECT_EQ(pool.counters().inplace_edits, 1u);
}

TEST(PacketPool, WireSizeCacheInvalidatedByEditAndClone) {
  PoolingGuard guard;
  PacketPool::set_pooling_enabled(true);
  PacketPool pool;

  auto interest = pool.make_interest();
  interest->name = Name("/wire/cache/a");
  CowInterest cow(InterestPtr(std::move(interest)), pool);
  const std::size_t before = cow->wire_size();

  cow.edit().name = Name("/wire/cache/a-much-longer-name-component");
  const std::size_t after = cow->wire_size();
  EXPECT_GT(after, before);  // a stale cache would have reported `before`

  // Clone path: alias the packet so edit() clones, then grow the name
  // again — the clone must not inherit the source's memoized size.
  InterestPtr alias = cow.shared();
  cow.edit().name = Name("/wire/cache/a-much-longer-name-component/plus");
  EXPECT_GT(cow->wire_size(), after);
  EXPECT_EQ(alias->wire_size(), after);  // reader's own cache still right
}

TEST(PacketPool, SignedPortionBuiltOnceAndRebuiltAfterEdit) {
  PoolingGuard guard;
  PacketPool::set_pooling_enabled(true);
  PacketPool pool;

  auto data = pool.make_data();
  data->name = Name("/signed/x");
  data->content_size = 9;
  const util::Bytes& first = data->signed_portion();
  const util::Bytes snapshot = first;
  // Memoized: the second call returns the same buffer, unchanged.
  EXPECT_EQ(&data->signed_portion(), &first);
  EXPECT_EQ(data->signed_portion(), snapshot);

  CowData cow(DataPtr(std::move(data)), pool);
  cow.edit().content_size = 10;
  EXPECT_NE(cow->signed_portion(), snapshot);  // rebuilt, not stale
}

TEST(PacketPool, WipeVolatileDropsFreeSlotCapacityOnly) {
  PoolingGuard guard;
  PacketPool::set_pooling_enabled(true);
  PacketPool pool;

  auto live = pool.make_data();
  live->name = Name("/wipe/live");
  auto dead = pool.make_data();
  dead->name = Name("/wipe/dead/with/a/long/name");
  dead.reset();
  ASSERT_EQ(pool.free_data_slots(), 1u);

  pool.wipe_volatile();  // crash path; ASan checks nothing leaks

  EXPECT_EQ(pool.free_data_slots(), 1u);
  EXPECT_EQ(live->name, Name("/wipe/live"));  // live packets untouched
  live.reset();
  auto fresh = pool.make_data();  // recycles the wiped slot fine
  EXPECT_TRUE(fresh->name.empty());
}

TEST(PacketPool, PoolingOffFallsBackToPlainAllocation) {
  PoolingGuard guard;
  PacketPool::set_pooling_enabled(false);
  PacketPool pool;

  auto a = pool.make_interest();
  a.reset();
  auto b = pool.make_interest();
  EXPECT_EQ(pool.counters().acquires, 2u);
  EXPECT_EQ(pool.counters().reuses, 0u);  // no slab involved
  EXPECT_EQ(pool.interest_slot_count(), 0u);
}

/// Fingerprint of one small fixed-seed scenario run.
std::string run_digest(std::uint64_t seed) {
  testing::GeneratorOptions generator;
  generator.duration = event::from_seconds(2.0);
  sim::Scenario scenario(testing::random_config(seed, generator));
  scenario.run();
  return testing::fingerprint_digest(scenario.harvest());
}

TEST(PacketPool, DoubleRunDeterministicAndPoolingInvisible) {
  PoolingGuard guard;
  PacketPool::set_pooling_enabled(true);
  const std::string first = run_digest(4242);
  const std::string second = run_digest(4242);
  EXPECT_EQ(first, second);  // slot recycling leaks no cross-run state

  PacketPool::set_pooling_enabled(false);
  EXPECT_EQ(run_digest(4242), first);  // allocation strategy invisible
}

}  // namespace
}  // namespace tactic::ndn
