// First-use allocation: per-node state costs heap only once the node
// uses it (docs/ARCHITECTURE.md, "Packet memory model"), and the name and
// Content Store paths a request takes allocate nothing once warm.  This
// binary links src/testing/alloc_probe.cpp, whose counting operator new
// is process-wide, so it stays out of the other test executables.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "event/scheduler.hpp"
#include "ndn/cs.hpp"
#include "ndn/forwarder.hpp"
#include "ndn/name.hpp"
#include "ndn/packet_pool.hpp"
#include "tactic/tactic_policy.hpp"
#include "testing/alloc_probe.hpp"
#include "util/hash_index.hpp"
#include "util/slab.hpp"
#include "util/stats.hpp"
#include "workload/catalog.hpp"

namespace tactic {
namespace {

/// Heap allocations `fn` makes.
template <typename Fn>
std::uint64_t allocs_in(Fn&& fn) {
  const std::uint64_t before = testing::alloc_count();
  fn();
  return testing::alloc_count() - before;
}

TEST(FirstUse, HashIndexAllocatesOnFirstInsert) {
  std::optional<util::HashIndex> index;
  EXPECT_EQ(allocs_in([&] { index.emplace(); }), 0u);
  EXPECT_GT(allocs_in([&] { index->insert(7, 0); }), 0u);
}

TEST(FirstUse, SlabAllocatesOnFirstAcquire) {
  std::optional<util::Slab<std::uint64_t>> slab;
  EXPECT_EQ(allocs_in([&] { slab.emplace(); }), 0u);
  EXPECT_GT(allocs_in([&] { slab->acquire(); }), 0u);
}

TEST(FirstUse, BloomFilterAllocatesBitsOnFirstInsert) {
  std::optional<bloom::BloomFilter> filter;
  EXPECT_EQ(allocs_in([&] { filter.emplace(bloom::BloomParams{}); }), 0u);
  const bloom::BaseHashes hashes{0x1234, 0x5679};
  EXPECT_FALSE(filter->contains(hashes));  // nothing to probe yet
  EXPECT_EQ(allocs_in([&] { filter->reset(); }), 0u);
  EXPECT_GT(allocs_in([&] { filter->insert(hashes); }), 0u);
  EXPECT_TRUE(filter->contains(hashes));
  EXPECT_EQ(allocs_in([&] { filter->reset(); }), 0u);  // bits stay
  EXPECT_FALSE(filter->contains(hashes));
}

TEST(FirstUse, QuantileHistogramAllocatesBucketsOnFirstSample) {
  std::optional<util::QuantileHistogram> hist;
  EXPECT_EQ(allocs_in([&] { hist.emplace(); }), 0u);
  EXPECT_EQ(allocs_in([&] { hist->add(0.0); }), 0u);  // the zero bucket
  util::QuantileHistogram idle;
  EXPECT_EQ(allocs_in([&] { hist->merge(idle); }), 0u);
  EXPECT_GT(allocs_in([&] { hist->add(0.5); }), 0u);
  util::QuantileHistogram target;
  EXPECT_GT(allocs_in([&] { target.merge(*hist); }), 0u);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.quantile(1.0), hist->quantile(1.0));
}

TEST(FirstUse, PacketPoolAllocatesOnFirstAcquire) {
  ASSERT_TRUE(ndn::PacketPool::pooling_enabled());
  std::optional<ndn::PacketPool> pool;
  EXPECT_EQ(allocs_in([&] { pool.emplace(); }), 0u);
  EXPECT_GT(allocs_in([&] { pool->make_interest().reset(); }), 0u);
  EXPECT_EQ(pool->interest_slot_count(), 1u);
  EXPECT_EQ(pool->data_slot_count(), 0u);  // each kind on its own first use
}

TEST(FirstUse, ForwarderAllocatesOnlyItsDefaultPolicy) {
  event::Scheduler scheduler;
  net::NodeInfo info{0, net::NodeKind::kCoreRouter, "core0"};
  std::optional<ndn::Forwarder> node;
  // The one allocation is the default NullPolicy.  The FIB, PIT, Content
  // Store, packet pool and face table wait for their first entry.
  EXPECT_EQ(allocs_in([&] { node.emplace(scheduler, std::move(info), 1000); }),
            1u);
}

TEST(FirstUse, CoreTacticPolicyAllocatesNoBitsBucketsOrQueueStorage) {
  const core::TrustAnchors anchors;
  core::TacticConfig config;
  std::optional<core::CoreTacticPolicy> policy;
  // The one allocation is ValidationLanes' vector of one lane.  No Bloom
  // bits, wait-histogram buckets or completion FIFO; the negative-verdict
  // cache, token buckets and signature batches start as empty maps.
  EXPECT_EQ(allocs_in([&] {
              policy.emplace(std::move(config), anchors, core::ComputeModel{},
                             util::Rng(1));
            }),
            1u);
  EXPECT_EQ(policy->bloom().bit_count(),
            bloom::bits_for_capacity(500, 5, 1e-4));
  EXPECT_EQ(policy->validation_lanes().lanes(), 1u);
}

// Names of up to Name::kInlineIds components keep their IDs inline: once
// the components are interned, building, copying and moving one allocate
// nothing.
TEST(SteadyState, ShortNamesBuildAndCopyWithoutAllocating) {
  const ndn::Name warm("/alloc-test/p0/obj1/c2");
  ASSERT_EQ(warm.size(), ndn::Name::kInlineIds);
  std::optional<ndn::Name> parsed;
  std::optional<ndn::Name> copied;
  std::optional<ndn::Name> moved;
  EXPECT_EQ(allocs_in([&] {
              parsed.emplace("/alloc-test/p0/obj1/c2");
              ndn::Name built = ndn::Name().append("alloc-test").append("p0");
              built.push_back(warm.component_ids()[2]);
              built = built.append("c2");
              copied.emplace(*parsed);
              moved.emplace(std::move(*copied));
              *copied = *moved;
              *moved = std::move(built);
              parsed->id_hash();
            }),
            0u);
  EXPECT_EQ(*moved, warm);
  EXPECT_EQ(*copied, warm);
  EXPECT_EQ(parsed->id_hash(), warm.id_hash());
}

TEST(SteadyState, ChunkNameAllocatesNothingAfterItsFirstCall) {
  util::Rng rng(3);
  const workload::Catalog catalog(ndn::Name("/alloc-test-provider"),
                                  workload::CatalogParams{}, rng);
  const ndn::Name first = catalog.chunk_name(7, 3);
  EXPECT_EQ(first, ndn::Name("/alloc-test-provider/obj7/c3"));
  std::optional<ndn::Name> again;
  EXPECT_EQ(allocs_in([&] { again.emplace(catalog.chunk_name(7, 3)); }), 0u);
  EXPECT_EQ(*again, first);
}

TEST(SteadyState, FullContentStoreInsertsWithEvictionWithoutAllocating) {
  constexpr std::size_t kCapacity = 8;
  std::vector<ndn::Data> packets(3 * kCapacity);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    packets[i].name = ndn::Name("/alloc-test-cs/obj").append_number(i);
    packets[i].provider_key_locator = "/alloc-test-cs/KEY/1";
  }
  ndn::ContentStore cs(kCapacity);
  // Fill the store, and evict once: the slab's free list allocates on
  // its first release.
  for (std::size_t i = 0; i <= kCapacity; ++i) cs.insert(packets[i]);
  EXPECT_EQ(allocs_in([&] {
              for (std::size_t i = kCapacity + 1; i < packets.size(); ++i) {
                cs.insert(packets[i]);
              }
            }),
            0u);
  EXPECT_EQ(cs.size(), kCapacity);
  EXPECT_EQ(cs.evictions(), 2 * kCapacity);

  // A signed Data allocates the signature column once; later signed
  // inserts into recycled slots reuse it.
  const auto signature = std::make_shared<const util::Bytes>(util::Bytes{1});
  for (ndn::Data& data : packets) data.signature = signature;
  EXPECT_GT(allocs_in([&] { cs.insert(packets[0]); }), 0u);
  EXPECT_EQ(allocs_in([&] {
              for (std::size_t i = 1; i < packets.size(); ++i) {
                cs.insert(packets[i]);
              }
            }),
            0u);
  const ndn::ContentStore::Entry* hit = cs.find(packets.back().name);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(cs.signature(*hit), signature);
}

}  // namespace
}  // namespace tactic
