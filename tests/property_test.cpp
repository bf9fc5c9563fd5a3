// Cross-module property sweeps: randomized invariants that tie the
// substrates together — crypto round-trips under random inputs, Bloom
// filter guarantees across random workloads, name algebra, scheduler
// ordering under adversarial schedules, and end-to-end protocol
// invariants under randomized mini-scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <utility>

#include "bloom/bloom_filter.hpp"
#include "crypto/aes.hpp"
#include "crypto/bignum.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "event/scheduler.hpp"
#include "ndn/name.hpp"
#include "sim/scenario.hpp"
#include "tactic/tag.hpp"
#include "util/rng.hpp"

namespace tactic {
namespace {

/// Per-seed iteration count: `def` by default, overridable through the
/// TACTIC_PROPERTY_ITERS environment variable (scaled proportionally, so
/// e.g. TACTIC_PROPERTY_ITERS=500 runs a loop defaulting to 50 for 500
/// iterations and one defaulting to 10 for 100).  Values <= 0 are
/// ignored.  Lets CI soak the properties without touching the source.
int property_iters(int def) {
  static const long scale = [] {
    const char* raw = std::getenv("TACTIC_PROPERTY_ITERS");
    return raw == nullptr ? 0L : std::atol(raw);
  }();
  if (scale <= 0) return def;
  const long scaled = (scale * def + 49) / 50;  // def=50 is the baseline
  return static_cast<int>(std::max(1L, scaled));
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  util::Rng rng_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110, 121, 132, 143, 154,
                                           165, 176));

// ---------------------------------------------------------------------------
// Crypto properties under random inputs
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, Sha256IsDeterministicAndSensitive) {
  for (int i = 0; i < property_iters(50); ++i) {
    util::Bytes message(rng_.uniform(300));
    for (auto& b : message) b = static_cast<std::uint8_t>(rng_());
    const util::Bytes digest = crypto::Sha256::digest(message);
    EXPECT_EQ(digest, crypto::Sha256::digest(message));
    if (!message.empty()) {
      util::Bytes flipped = message;
      flipped[rng_.uniform(flipped.size())] ^= 0x01;
      EXPECT_NE(crypto::Sha256::digest(flipped), digest);
    }
  }
}

TEST_P(SeededProperty, AesCtrRoundTripsRandomPayloads) {
  util::Bytes key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng_());
  for (int i = 0; i < property_iters(30); ++i) {
    util::Bytes payload(rng_.uniform(600));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng_());
    const std::uint64_t nonce = rng_();
    EXPECT_EQ(crypto::aes128_ctr(key, nonce,
                                 crypto::aes128_ctr(key, nonce, payload)),
              payload);
  }
}

TEST_P(SeededProperty, BignumRingAxiomsSample) {
  using crypto::BigUInt;
  for (int i = 0; i < property_iters(30); ++i) {
    const BigUInt a = BigUInt::random_bits(rng_, 16 + rng_.uniform(200));
    const BigUInt b = BigUInt::random_bits(rng_, 16 + rng_.uniform(200));
    const BigUInt c = BigUInt::random_bits(rng_, 16 + rng_.uniform(200));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST_P(SeededProperty, ModexpMultiplicativeHomomorphism) {
  using crypto::BigUInt;
  // (x*y)^e mod n == x^e * y^e mod n — the property RSA rests on.
  BigUInt n = BigUInt::random_bits(rng_, 96);
  if (!n.is_odd()) n += BigUInt{1};
  const BigUInt e{65537};
  for (int i = 0; i < property_iters(10); ++i) {
    const BigUInt x = BigUInt::random_below(rng_, n);
    const BigUInt y = BigUInt::random_below(rng_, n);
    EXPECT_EQ(BigUInt::modexp((x * y) % n, e, n),
              (BigUInt::modexp(x, e, n) * BigUInt::modexp(y, e, n)) % n);
  }
}

TEST_P(SeededProperty, TagSerializationBijectiveOverRandomFields) {
  const crypto::RsaKeyPair keys =
      crypto::generate_rsa_keypair(rng_, 512);
  for (int i = 0; i < property_iters(10); ++i) {
    core::Tag::Fields fields;
    fields.provider_key_locator =
        "/p" + std::to_string(rng_.uniform(100)) + "/KEY/1";
    fields.client_key_locator =
        "/u" + std::to_string(rng_.uniform(1000)) + "/KEY/1";
    fields.access_level = static_cast<std::uint32_t>(rng_());
    fields.access_path = rng_();
    fields.expiry = static_cast<event::Time>(rng_() >> 1);
    const core::TagPtr tag = core::issue_tag(fields, keys.private_key);
    const core::TagPtr back = core::Tag::deserialize(tag->serialize());
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(back->same_tag(*tag));
    EXPECT_EQ(back->serialize(), tag->serialize());
  }
}

// ---------------------------------------------------------------------------
// Bloom filter: no false negatives under any random workload, FPP bound
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, BloomNeverForgetsUnderRandomWorkload) {
  bloom::BloomFilter bf({200, 5, 1e-3, 1e-3});
  std::vector<util::Bytes> inserted;
  for (int i = 0; i < property_iters(200); ++i) {
    util::Bytes element(8 + rng_.uniform(24));
    for (auto& b : element) b = static_cast<std::uint8_t>(rng_());
    bf.insert(element);
    inserted.push_back(std::move(element));
    // Every element inserted since the last reset must be found.
    for (const auto& e : inserted) EXPECT_TRUE(bf.contains(e));
    if (bf.saturated()) {
      bf.reset();
      inserted.clear();
    }
  }
}

// ---------------------------------------------------------------------------
// Name algebra
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, NameUriParseIsInverse) {
  for (int i = 0; i < property_iters(100); ++i) {
    ndn::Name name;
    const std::size_t components = rng_.uniform(6);
    for (std::size_t c = 0; c < components; ++c) {
      name = name.append("x" + std::to_string(rng_.uniform(10000)));
    }
    EXPECT_EQ(ndn::Name(name.to_uri()), name);
    // prefix(k) is always a prefix; comparison is a total order.
    const ndn::Name prefix = name.prefix(rng_.uniform(components + 1));
    EXPECT_TRUE(prefix.is_prefix_of(name));
    EXPECT_LE(prefix.compare(name), 0);
  }
}

// ---------------------------------------------------------------------------
// Scheduler: global (time, scheduling order) under random schedules, some
// made from inside handlers.  (Nothing is cancelled: every scheduled event
// runs.  The name stays so the 16 seeded test IDs do.)
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, SchedulerOrderWithRandomCancellations) {
  event::Scheduler sched;
  // (time, scheduling index) of the last event run: events must run in
  // time order, and in scheduling order within an instant.
  std::pair<event::Time, int> last{-1, -1};
  int scheduled = 0;
  int executed = 0;
  std::function<void(event::Time)> add = [&](event::Time when) {
    const int index = scheduled++;
    sched.schedule_at(when, [&, when, index] {
      EXPECT_LT(last, std::pair(when, index));
      last = {when, index};
      ++executed;
      // A third of the handlers schedule a follow-up, often at the
      // current instant.
      if (scheduled < 3 * property_iters(2000) && rng_.bernoulli(1.0 / 3.0)) {
        add(sched.now() + static_cast<event::Time>(rng_.uniform(3)));
      }
    });
  };
  const int total = property_iters(2000);
  for (int i = 0; i < total; ++i) {
    add(static_cast<event::Time>(rng_.uniform(1000)));
  }
  sched.run();
  EXPECT_EQ(executed, scheduled);
  EXPECT_EQ(sched.executed_count(), static_cast<std::uint64_t>(scheduled));
  EXPECT_EQ(sched.pending_count(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: randomized mini-scenarios never leak to attackers and
// conserve chunk accounting
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, RandomMiniScenarioInvariants) {
  sim::ScenarioConfig config;
  config.topology.core_routers = 6 + rng_.uniform(10);
  config.topology.edge_routers = 2 + rng_.uniform(3);
  config.topology.providers = 1 + rng_.uniform(3);
  config.topology.clients = 2 + rng_.uniform(5);
  config.topology.attackers = 1 + rng_.uniform(3);
  config.provider.key_bits = 512;
  config.provider.catalog.objects = 5 + rng_.uniform(10);
  config.provider.catalog.chunks_per_object = 3 + rng_.uniform(5);
  config.tactic.bloom.capacity = 50 + rng_.uniform(500);
  config.client.think_time_mean =
      static_cast<event::Time>(10 + rng_.uniform(100)) *
      event::kMillisecond;
  config.attacker.think_time_mean = event::kSecond;
  config.compute = core::ComputeModel::zero();
  config.duration = 15 * event::kSecond;
  config.seed = GetParam() * 101;

  sim::Scenario scenario(config);
  const sim::Metrics& metrics = scenario.run();

  // Accounting: every request is received, NACKed, timed out, or still in
  // flight at the cutoff (bounded by the windows).
  const std::uint64_t accounted = metrics.clients.received +
                                  metrics.clients.nacks +
                                  metrics.clients.timeouts;
  EXPECT_LE(accounted, metrics.clients.requested);
  EXPECT_LE(metrics.clients.requested - accounted,
            config.topology.clients * config.client.window);

  // Security invariant: protected content never reaches attackers.
  EXPECT_EQ(metrics.attackers.received, 0u);
  // Liveness: clients make progress.
  EXPECT_GT(metrics.clients.delivery_ratio(), 0.9);
}

}  // namespace
}  // namespace tactic
