// Micro-calibration pass — the analogue of the paper's Section 8.B
// measurement, which benchmarked BF lookup, BF insertion, and signature
// verification on a Core-i7 and injected the measured distributions into
// ndnSIM.  Running this binary re-measures the same operations on the
// host for our own implementations, alongside the other hot-path
// primitives of the stack.
//
//   build/bench/micro_calibration
//
// Each case builds its fixture, then warms up by doubling its batch size
// until one batch takes at least kMinBatch on std::chrono::steady_clock.
// It then times kBatches batches of that size and prints the median time
// per operation, one line per case with its unit.
//
// Paper's published means: BF lookup 9.14e-7 s, BF insert 3.35e-7 s,
// signature verification 1.12e-5 s.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "crypto/aes.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "ndn/cs.hpp"
#include "ndn/fib.hpp"
#include "ndn/name.hpp"
#include "tactic/precheck.hpp"
#include "tactic/tag.hpp"
#include "util/rng.hpp"

namespace {

using namespace tactic;
using Clock = std::chrono::steady_clock;

constexpr std::chrono::milliseconds kMinBatch{20};
constexpr int kBatches = 15;

/// Makes `value` observable, so the work that produced it is not dropped.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Times `op`, one operation per call, and prints the median per-op time.
template <class Op>
void run_case(const std::string& name, Op op) {
  const auto time_batch = [&op](std::size_t ops) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) op();
    return Clock::now() - start;
  };
  std::size_t ops = 1;
  while (time_batch(ops) < kMinBatch) ops *= 2;
  std::vector<double> ns_per_op;
  for (int b = 0; b < kBatches; ++b) {
    const std::chrono::duration<double, std::nano> batch = time_batch(ops);
    ns_per_op.push_back(batch.count() / static_cast<double>(ops));
  }
  std::sort(ns_per_op.begin(), ns_per_op.end());
  const double median = ns_per_op[kBatches / 2];
  const bool micros = median >= 1000.0;
  std::printf("%-24s %10.3f %s/op  (median of %d batches of %zu)\n",
              name.c_str(), micros ? median / 1000.0 : median,
              micros ? "us" : "ns", kBatches, ops);
  std::fflush(stdout);
}

util::Bytes element(int i) {
  return util::to_bytes("tag-element-" + std::to_string(i));
}

void bloom_lookup(int capacity) {
  bloom::BloomFilter bf({static_cast<std::size_t>(capacity), 5, 1e-4});
  for (int i = 0; i < capacity; ++i) bf.insert(element(i));
  int i = 0;
  run_case("BloomLookup/" + std::to_string(capacity),
           [&] { keep(bf.contains(element(i++ & 1023))); });
}

void bloom_insert() {
  bloom::BloomFilter bf({100000, 5, 1e-4});
  int i = 0;
  run_case("BloomInsert", [&] {
    bf.insert(element(i++));
    if (bf.saturated()) bf.reset();
  });
}

void sha256_1kib() {
  const util::Bytes data(1024, 0xAB);
  run_case("Sha256_1KiB", [&] { keep(crypto::Sha256::digest(data)); });
}

void aes128_ctr_1kib() {
  const util::Bytes key(16, 0x42);
  const util::Bytes data(1024, 0xCD);
  run_case("Aes128Ctr_1KiB", [&] { keep(crypto::aes128_ctr(key, 7, data)); });
}

struct RsaFixture {
  crypto::RsaKeyPair keys;
  core::TagPtr tag;
  crypto::Pki pki;
  explicit RsaFixture(std::size_t bits) {
    util::Rng rng(1);
    keys = crypto::generate_rsa_keypair(rng, bits);
    core::Tag::Fields fields;
    fields.provider_key_locator = "/provider0/KEY/1";
    fields.client_key_locator = "/client0/KEY/1";
    fields.access_level = 2;
    fields.expiry = 10 * event::kSecond;
    tag = core::issue_tag(fields, keys.private_key);
    pki.add_key(fields.provider_key_locator, keys.public_key);
  }
};

/// Each op regenerates the key pair of one fixed seed, so every op (and
/// every build) tries the same prime candidates.
void rsa_keygen(std::size_t bits) {
  run_case("RsaKeygen/" + std::to_string(bits), [&] {
    util::Rng rng(1);
    keep(crypto::generate_rsa_keypair(rng, bits));
  });
}

void tag_sign_and_verify(std::size_t bits) {
  const RsaFixture fixture(bits);
  core::Tag::Fields fields = fixture.tag->fields();
  std::int64_t expiry = 0;
  run_case("TagSign/" + std::to_string(bits), [&] {
    fields.expiry = ++expiry;  // fresh tag each time, like a provider
    keep(core::issue_tag(fields, fixture.keys.private_key));
  });
  run_case("TagVerify/" + std::to_string(bits), [&] {
    keep(core::verify_tag_signature(*fixture.tag, fixture.pki));
  });
}

void tag_precheck() {
  const RsaFixture fixture(1024);
  const ndn::Name name("/provider0/obj3/c7");
  run_case("TagPrecheck", [&] {
    keep(core::edge_precheck(*fixture.tag, name, event::kSecond));
  });
}

/// A churning forger's per-request tag: the template's fields with a
/// fresh expiry, sharing the template's signature.
void tag_build() {
  const RsaFixture fixture(1024);
  core::Tag::Fields fields = fixture.tag->fields();
  std::int64_t expiry = 0;
  run_case("TagBuild", [&] {
    fields.expiry = ++expiry;
    keep(std::make_shared<const core::Tag>(fields, fixture.tag->signature()));
  });
}

/// A router's Bloom probe for a tag, made as ValidationEngine::bloom_lookup
/// makes it, against a filter holding 1,000 tags; half the probed tags
/// are absent.
void tag_bloom_lookup() {
  const RsaFixture fixture(1024);
  constexpr std::size_t kTags = 2000;
  std::vector<core::TagPtr> tags;
  core::Tag::Fields fields = fixture.tag->fields();
  for (std::size_t i = 0; i < kTags; ++i) {
    fields.expiry = static_cast<event::Time>(i + 1);
    tags.push_back(
        std::make_shared<const core::Tag>(fields, fixture.tag->signature()));
  }
  bloom::BloomFilter bf({kTags / 2, 5, 1e-4});
  for (std::size_t i = 0; i < kTags; i += 2) bf.insert(tags[i]->bloom_hashes());
  std::size_t i = 0;
  run_case("TagBloomLookup", [&] {
    keep(bf.contains(tags[i++ % kTags]->bloom_hashes()));
  });
}

void name_parse() {
  run_case("NameParse", [] { keep(ndn::Name("/provider3/obj17/c42")); });
}

void fib_longest_prefix_match() {
  ndn::Fib fib;
  for (int i = 0; i < 1000; ++i) {
    fib.add_route(ndn::Name("/provider" + std::to_string(i)), 1);
  }
  const ndn::Name name("/provider512/obj1/c1");
  run_case("FibLongestPrefixMatch", [&] { keep(fib.lookup(name)); });
}

/// The lookup names are built before timing, so the case times the
/// store, not name parsing and interning (NameParse times those).
void content_store_hit() {
  constexpr std::size_t kNames = 10000;
  std::vector<ndn::Name> names;
  names.reserve(kNames);
  for (std::size_t i = 0; i < kNames; ++i) {
    names.emplace_back("/p/obj" + std::to_string(i) + "/c0");
  }
  ndn::ContentStore cs(kNames);
  ndn::Data data;
  for (const ndn::Name& name : names) {
    data.name = name;
    cs.insert(data);
  }
  std::size_t i = 0;
  run_case("ContentStoreHit", [&] { keep(cs.find(names[i++ % kNames])); });
}

/// Every insert is a new name into a full store: copy the content into
/// the recycled slot, then evict the LRU tail.
void content_store_insert_evict() {
  constexpr std::size_t kCapacity = 1000;
  constexpr std::size_t kNames = 8 * kCapacity;
  std::vector<ndn::Data> packets(kNames);
  for (std::size_t i = 0; i < kNames; ++i) {
    packets[i].name = ndn::Name("/p/obj" + std::to_string(i) + "/c0");
    packets[i].access_level = 1;
    packets[i].provider_key_locator = "/p/KEY/1";
  }
  ndn::ContentStore cs(kCapacity);
  std::size_t i = 0;
  for (; i < kCapacity; ++i) cs.insert(packets[i]);
  run_case("ContentStoreInsertEvict", [&] {
    cs.insert(packets[i++ % kNames]);
    keep(cs.evictions());
  });
}

}  // namespace

int main() {
  bloom_lookup(500);
  bloom_lookup(5000);
  bloom_insert();
  sha256_1kib();
  aes128_ctr_1kib();
  rsa_keygen(512);
  rsa_keygen(1024);
  tag_sign_and_verify(512);
  tag_sign_and_verify(1024);
  tag_sign_and_verify(2048);
  tag_precheck();
  tag_build();
  tag_bloom_lookup();
  name_parse();
  fib_longest_prefix_match();
  content_store_hit();
  content_store_insert_evict();
  return 0;
}
