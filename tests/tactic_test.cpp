// Tests for the TACTIC core: tags, access paths, the compute model,
// Protocol 1 pre-checks, tag issuance/revocation, and Protocols 2-4 driven
// over a hand-built client-AP-edge-core-provider chain.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "ndn/forwarder.hpp"
#include "tactic/access_path.hpp"
#include "tactic/compute_model.hpp"
#include "tactic/precheck.hpp"
#include "tactic/registration.hpp"
#include "tactic/tactic_policy.hpp"
#include "tactic/tag.hpp"
#include "topology/network.hpp"
#include "workload/attacker_app.hpp"

namespace tactic::core {
namespace {

using event::kMillisecond;
using event::kSecond;

crypto::RsaKeyPair test_keypair(std::uint64_t seed = 1) {
  util::Rng rng(seed);
  return crypto::generate_rsa_keypair(rng, 512);
}

Tag::Fields basic_fields() {
  Tag::Fields fields;
  fields.provider_key_locator = "/provider0/KEY/1";
  fields.client_key_locator = "/client0/KEY/1";
  fields.access_level = 2;
  fields.access_path = 0xDEADBEEF;
  fields.expiry = 10 * kSecond;
  return fields;
}

// ---------------------------------------------------------------------------
// Tag
// ---------------------------------------------------------------------------

TEST(Tag, IssueAndVerify) {
  const auto keys = test_keypair();
  const TagPtr tag = issue_tag(basic_fields(), keys.private_key);
  crypto::Pki pki;
  pki.add_key("/provider0/KEY/1", keys.public_key);
  EXPECT_TRUE(verify_tag_signature(*tag, pki));
}

TEST(Tag, VerifyFailsForUnknownLocator) {
  const auto keys = test_keypair();
  const TagPtr tag = issue_tag(basic_fields(), keys.private_key);
  crypto::Pki pki;  // empty
  EXPECT_FALSE(verify_tag_signature(*tag, pki));
}

TEST(Tag, ForgedTagFailsVerification) {
  const auto provider = test_keypair(1);
  const auto forger = test_keypair(2);
  crypto::Pki pki;
  pki.add_key("/provider0/KEY/1", provider.public_key);
  const TagPtr forged = forge_tag(basic_fields(), forger.private_key);
  EXPECT_FALSE(verify_tag_signature(*forged, pki));
}

TEST(Tag, AnyFieldTamperBreaksVerification) {
  const auto keys = test_keypair();
  crypto::Pki pki;
  pki.add_key("/provider0/KEY/1", keys.public_key);
  pki.add_key("/provider1/KEY/1", keys.public_key);
  const TagPtr good = issue_tag(basic_fields(), keys.private_key);

  auto tampered = [&](auto mutate) {
    Tag::Fields fields = basic_fields();
    mutate(fields);
    return Tag(fields, good->signature());
  };
  EXPECT_FALSE(verify_tag_signature(
      tampered([](Tag::Fields& f) { f.access_level = 99; }), pki));
  EXPECT_FALSE(verify_tag_signature(
      tampered([](Tag::Fields& f) { f.expiry = 1000 * kSecond; }), pki));
  EXPECT_FALSE(verify_tag_signature(
      tampered([](Tag::Fields& f) { f.access_path = 0; }), pki));
  EXPECT_FALSE(verify_tag_signature(
      tampered([](Tag::Fields& f) {
        f.provider_key_locator = "/provider1/KEY/1";
      }),
      pki));
}

TEST(Tag, BloomKeyChangesWithAnyField) {
  const auto keys = test_keypair();
  const TagPtr a = issue_tag(basic_fields(), keys.private_key);
  Tag::Fields other = basic_fields();
  other.access_level = 3;
  const TagPtr b = issue_tag(other, keys.private_key);
  EXPECT_NE(a->bloom_key(), b->bloom_key());
  EXPECT_EQ(a->bloom_key().size(), 32u);
  EXPECT_TRUE(a->same_tag(*a));
  EXPECT_FALSE(a->same_tag(*b));
}

TEST(Tag, SerializationRoundsTripFields) {
  const auto keys = test_keypair();
  const TagPtr tag = issue_tag(basic_fields(), keys.private_key);
  EXPECT_EQ(tag->provider_key_locator(), "/provider0/KEY/1");
  EXPECT_EQ(tag->client_key_locator(), "/client0/KEY/1");
  EXPECT_EQ(tag->access_level(), 2u);
  EXPECT_EQ(tag->access_path(), 0xDEADBEEFu);
  EXPECT_EQ(tag->expiry(), 10 * kSecond);
}

TEST(Tag, WireSizeIsACoupleHundredBytes) {
  // Paper Section 4.A: "a tag [will] be a couple hundred bytes."
  const auto keys = test_keypair();
  const TagPtr tag = issue_tag(basic_fields(), keys.private_key);
  EXPECT_GT(tag->wire_size(), 100u);
  EXPECT_LT(tag->wire_size(), 400u);
}

TEST(Tag, ProviderPrefixExtraction) {
  const auto keys = test_keypair();
  const TagPtr tag = issue_tag(basic_fields(), keys.private_key);
  EXPECT_TRUE(tag->provider_prefix_of(ndn::Name("/provider0/obj1/c0")));
  EXPECT_FALSE(tag->provider_prefix_of(ndn::Name("/provider1/obj1/c0")));
}

// ---------------------------------------------------------------------------
// Derived tag values: computed once, on first use
// ---------------------------------------------------------------------------

/// SHA-256 blocks compressed while `op` runs.
template <class Op>
std::uint64_t blocks_during(Op op) {
  const std::uint64_t before = crypto::Sha256::blocks_compressed();
  op();
  return crypto::Sha256::blocks_compressed() - before;
}

TEST(TagKeys, UnprobedTagIsNeverHashed) {
  const util::Bytes signature(64, 0x5A);
  std::unique_ptr<Tag> tag;
  EXPECT_EQ(blocks_during([&] {
              tag = std::make_unique<Tag>(basic_fields(), signature);
            }),
            0u);
  const Tag twin(basic_fields(), signature);
  EXPECT_EQ(blocks_during([&] {
              EXPECT_GT(tag->wire_size(), 0u);
              EXPECT_TRUE(tag->same_tag(twin));
              EXPECT_EQ(edge_precheck(*tag, ndn::Name("/provider0/obj1/c0"),
                                      kSecond),
                        PrecheckResult::kOk);
            }),
            0u);
}

TEST(TagKeys, FirstUseHashesOnceLaterUsesNone) {
  const util::Bytes signature(64, 0x5A);
  const Tag reference(basic_fields(), signature);
  // The work of one derivation: SHA-256 of the encoding, then of the key.
  const std::uint64_t once = blocks_during([&] {
    bloom::base_hashes(crypto::Sha256::digest(reference.serialize()));
  });
  ASSERT_GT(once, 0u);

  const Tag by_key(basic_fields(), signature);
  EXPECT_EQ(blocks_during([&] { by_key.bloom_key(); }), once);
  EXPECT_EQ(blocks_during([&] {
              by_key.bloom_key();
              by_key.bloom_hashes();
            }),
            0u);

  const Tag by_hashes(basic_fields(), signature);
  EXPECT_EQ(blocks_during([&] { by_hashes.bloom_hashes(); }), once);
  EXPECT_EQ(blocks_during([&] {
              by_hashes.bloom_hashes();
              by_hashes.bloom_key();
            }),
            0u);
  EXPECT_EQ(by_key.bloom_key(), by_hashes.bloom_key());
}

TEST(TagKeys, ForgedChurnSignsOnceThenBuildsWithoutHashing) {
  const auto forger = test_keypair(2);
  auto strategy = workload::attacker_strategies::forged_churn(
      std::make_shared<const crypto::RsaPrivateKey>(forger.private_key),
      "mallory", 60 * kSecond);
  const ndn::Name content("/provider0/obj1/c0");
  TagPtr first;
  EXPECT_GT(blocks_during([&] { first = strategy(content, kSecond); }), 0u);
  std::vector<TagPtr> tags;
  tags.reserve(999);
  EXPECT_EQ(blocks_during([&] {
              for (int i = 0; i < 999; ++i) {
                tags.push_back(strategy(content, kSecond));
              }
            }),
            0u);
  EXPECT_FALSE(tags.front()->same_tag(*first));
  EXPECT_EQ(tags.front()->signature(), first->signature());
}

TEST(TagKeys, BloomHashesAreBaseHashesOfBloomKey) {
  const auto keys = test_keypair();
  for (std::uint32_t level = 0; level < 8; ++level) {
    Tag::Fields fields = basic_fields();
    fields.access_level = level;
    const TagPtr tag = issue_tag(fields, keys.private_key);
    const bloom::BaseHashes expected = bloom::base_hashes(tag->bloom_key());
    EXPECT_EQ(tag->bloom_hashes().h1, expected.h1);
    EXPECT_EQ(tag->bloom_hashes().h2, expected.h2);
  }
}

TEST(TagKeys, HashProbesAgreeWithByteProbes) {
  util::Rng rng(7);
  const util::Bytes signature(64, 0x5A);
  std::vector<TagPtr> tags;
  for (int i = 0; i < 400; ++i) {
    Tag::Fields fields = basic_fields();
    fields.expiry = static_cast<event::Time>(rng() % 1000000);
    tags.push_back(std::make_shared<const Tag>(fields, signature));
  }
  // A small filter, so some probes are false positives.
  bloom::BloomFilter filter({/*capacity=*/60, 5, 1e-2, 1e-2});
  for (const TagPtr& tag : tags) {
    if (rng() % 4 != 0) continue;
    if (rng() % 2 == 0) {
      filter.insert(tag->bloom_key());
    } else {
      filter.insert(tag->bloom_hashes());
    }
  }
  std::size_t hits = 0;
  for (const TagPtr& tag : tags) {
    const bool by_hashes = filter.contains(tag->bloom_hashes());
    EXPECT_EQ(by_hashes, filter.contains(tag->bloom_key()));
    hits += by_hashes ? 1 : 0;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, tags.size());
}

TEST(TagKeys, WireSizeIsSerializedSize) {
  for (const std::size_t signature_size : {0, 64, 128}) {
    for (const bool empty_locators : {false, true}) {
      Tag::Fields fields = basic_fields();
      if (empty_locators) {
        fields.provider_key_locator.clear();
        fields.client_key_locator.clear();
      }
      const Tag tag(fields, util::Bytes(signature_size, 0x11));
      EXPECT_EQ(tag.wire_size(), tag.serialize().size())
          << signature_size << "-byte signature, empty locators "
          << empty_locators;
    }
  }
}

TEST(TagKeys, SameTagIsEncodingEquality) {
  const util::Bytes signature(64, 0x5A);
  const Tag base(basic_fields(), signature);
  EXPECT_TRUE(base.same_tag(base));
  const Tag twin(basic_fields(), signature);
  EXPECT_TRUE(base.same_tag(twin));

  const auto check = [&](const Tag& other) {
    EXPECT_EQ(base.same_tag(other), base.serialize() == other.serialize());
    EXPECT_EQ(other.same_tag(base), base.serialize() == other.serialize());
    EXPECT_FALSE(base.same_tag(other));
  };
  const auto tampered = [&](auto mutate) {
    Tag::Fields fields = basic_fields();
    mutate(fields);
    return Tag(fields, signature);
  };
  check(tampered([](Tag::Fields& f) { f.provider_key_locator += "x"; }));
  check(tampered([](Tag::Fields& f) { f.client_key_locator = "/c1/KEY/1"; }));
  check(tampered([](Tag::Fields& f) { f.access_level = 3; }));
  check(tampered([](Tag::Fields& f) { f.access_path ^= 1; }));
  check(tampered([](Tag::Fields& f) { f.expiry += 1; }));
  util::Bytes other_signature = signature;
  other_signature.back() ^= 1;
  check(Tag(basic_fields(), other_signature));
  check(Tag(basic_fields(), util::Bytes(65, 0x5A)));
}

TEST(TagKeys, ProviderPrefixTestFollowsNameParsing) {
  const std::vector<std::string> locators = {
      "/provider0/KEY/1", "//provider0//KEY", "provider0", "/", ""};
  const std::vector<ndn::Name> names = {
      ndn::Name("/provider0/obj1/c0"), ndn::Name("/provider0"),
      ndn::Name("/provider1/obj1/c0"), ndn::Name("/provider00/obj1"),
      ndn::Name("/KEY/provider0"), ndn::Name("/")};
  for (const std::string& locator : locators) {
    Tag::Fields fields = basic_fields();
    fields.provider_key_locator = locator;
    const Tag tag(fields, util::Bytes(64, 0x5A));
    for (const ndn::Name& name : names) {
      // The parse-and-slice the text test replaces.
      const bool expected = ndn::Name(locator).prefix(1).is_prefix_of(name);
      EXPECT_EQ(tag.provider_prefix_of(name), expected)
          << "locator '" << locator << "', name " << name.to_uri();
    }
  }
}

// ---------------------------------------------------------------------------
// Access path
// ---------------------------------------------------------------------------

TEST(AccessPath, XorIsOrderIndependentAndSelfInverse) {
  const std::uint64_t a = entity_id_hash("ap1");
  const std::uint64_t b = entity_id_hash("relay2");
  EXPECT_EQ(accumulate_access_path(accumulate_access_path(0, a), b),
            accumulate_access_path(accumulate_access_path(0, b), a));
  EXPECT_EQ(accumulate_access_path(accumulate_access_path(0, a), a), 0u);
}

TEST(AccessPath, PathOfLabels) {
  const std::uint64_t direct = access_path_of({"ap1", "relay2"});
  EXPECT_EQ(direct, entity_id_hash("ap1") ^ entity_id_hash("relay2"));
  EXPECT_EQ(access_path_of({}), 0u);
}

TEST(AccessPath, DistinctEntitiesDistinctHashes) {
  EXPECT_NE(entity_id_hash("ap1"), entity_id_hash("ap2"));
  EXPECT_EQ(entity_id_hash("ap1"), entity_id_hash("ap1"));
}

// ---------------------------------------------------------------------------
// Compute model
// ---------------------------------------------------------------------------

TEST(ComputeModel, ZeroModelChargesNothing) {
  util::Rng rng(1);
  ComputeModel model = ComputeModel::zero();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.bf_lookup_cost(rng), 0);
    EXPECT_EQ(model.bf_insert_cost(rng), 0);
    EXPECT_EQ(model.sig_verify_cost(rng), 0);
  }
}

TEST(ComputeModel, DeterministicUsesMeans) {
  util::Rng rng(2);
  ComputeModel model = ComputeModel::deterministic();
  EXPECT_EQ(model.bf_lookup_cost(rng), event::from_seconds(9.14e-7));
  EXPECT_EQ(model.sig_verify_cost(rng), event::from_seconds(1.12e-5));
}

TEST(ComputeModel, PaperDefaultsNeverNegative) {
  util::Rng rng(3);
  ComputeModel model = ComputeModel::paper_defaults();
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(model.bf_insert_cost(rng), 0);
    EXPECT_GE(model.sig_verify_cost(rng), 0);
  }
}

TEST(ComputeModel, PaperVerifyTailReachesMilliseconds) {
  // The printed sigma (6.49e-3 s) means a heavy tail; over many samples
  // some verifications must cost > 1 ms — that tail is what makes BF
  // resets visible in Fig. 5.
  util::Rng rng(4);
  ComputeModel model = ComputeModel::paper_defaults();
  event::Time max_cost = 0;
  for (int i = 0; i < 10000; ++i) {
    max_cost = std::max(max_cost, model.sig_verify_cost(rng));
  }
  EXPECT_GT(max_cost, event::kMillisecond);
}

// ---------------------------------------------------------------------------
// Protocol 1 pre-check
// ---------------------------------------------------------------------------

TEST(Precheck, EdgeAcceptsMatchingUnexpired) {
  const auto keys = test_keypair();
  const TagPtr tag = issue_tag(basic_fields(), keys.private_key);
  EXPECT_EQ(edge_precheck(*tag, ndn::Name("/provider0/obj1/c2"), kSecond),
            PrecheckResult::kOk);
}

TEST(Precheck, EdgeRejectsWrongProviderPrefix) {
  const auto keys = test_keypair();
  const TagPtr tag = issue_tag(basic_fields(), keys.private_key);
  EXPECT_EQ(edge_precheck(*tag, ndn::Name("/provider1/obj1/c2"), kSecond),
            PrecheckResult::kPrefixMismatch);
}

TEST(Precheck, EdgeRejectsExpired) {
  const auto keys = test_keypair();
  const TagPtr tag = issue_tag(basic_fields(), keys.private_key);
  EXPECT_EQ(edge_precheck(*tag, ndn::Name("/provider0/x"), 11 * kSecond),
            PrecheckResult::kExpired);
  // Boundary: expiry == now is still valid (T_e < T_current rejects).
  EXPECT_EQ(edge_precheck(*tag, ndn::Name("/provider0/x"), 10 * kSecond),
            PrecheckResult::kOk);
}

TEST(Precheck, ContentChecksAccessLevelHierarchy) {
  const auto keys = test_keypair();
  const TagPtr tag = issue_tag(basic_fields(), keys.private_key);  // AL 2
  ndn::Data data;
  data.provider_key_locator = "/provider0/KEY/1";
  data.access_level = 2;
  EXPECT_EQ(content_precheck(*tag, data), PrecheckResult::kOk);
  data.access_level = 1;  // lower level content: higher-AL tag suffices
  EXPECT_EQ(content_precheck(*tag, data), PrecheckResult::kOk);
  data.access_level = 3;  // above the tag
  EXPECT_EQ(content_precheck(*tag, data),
            PrecheckResult::kAccessLevelTooLow);
}

TEST(Precheck, ContentPublicDataSkipsChecks) {
  const auto keys = test_keypair();
  Tag::Fields fields = basic_fields();
  fields.access_level = 0;
  const TagPtr tag = issue_tag(fields, keys.private_key);
  ndn::Data data;
  data.access_level = ndn::kPublicAccessLevel;
  data.provider_key_locator = "/someone-else/KEY/1";
  EXPECT_EQ(content_precheck(*tag, data), PrecheckResult::kOk);
}

TEST(Precheck, ContentRejectsProviderKeyMismatch) {
  const auto keys = test_keypair();
  const TagPtr tag = issue_tag(basic_fields(), keys.private_key);
  ndn::Data data;
  data.access_level = 1;
  data.provider_key_locator = "/provider0/KEY/2";  // rotated key
  EXPECT_EQ(content_precheck(*tag, data),
            PrecheckResult::kProviderKeyMismatch);
}

TEST(Precheck, NackReasonMapping) {
  EXPECT_EQ(to_nack_reason(PrecheckResult::kExpired),
            ndn::NackReason::kExpiredTag);
  EXPECT_EQ(to_nack_reason(PrecheckResult::kPrefixMismatch),
            ndn::NackReason::kPrefixMismatch);
  EXPECT_EQ(to_nack_reason(PrecheckResult::kOk), ndn::NackReason::kNone);
}

// ---------------------------------------------------------------------------
// TagIssuer
// ---------------------------------------------------------------------------

TEST(TagIssuer, IssueEnrolledOnly) {
  const auto keys = test_keypair();
  TagIssuer issuer("/provider0/KEY/1", keys.private_key, 10 * kSecond);
  EXPECT_EQ(issuer.issue("/client0/KEY/1", 0, 0), nullptr);
  EXPECT_EQ(issuer.refusals(), 1u);
  issuer.enroll("/client0/KEY/1", 2);
  const TagPtr tag = issuer.issue("/client0/KEY/1", 7, kSecond);
  ASSERT_NE(tag, nullptr);
  EXPECT_EQ(tag->access_level(), 2u);
  EXPECT_EQ(tag->access_path(), 7u);
  EXPECT_EQ(tag->expiry(), kSecond + 10 * kSecond);
  EXPECT_EQ(issuer.tags_issued(), 1u);
}

TEST(TagIssuer, RevocationStopsIssuance) {
  const auto keys = test_keypair();
  TagIssuer issuer("/provider0/KEY/1", keys.private_key, 10 * kSecond);
  issuer.enroll("/client0/KEY/1", 1);
  issuer.revoke("/client0/KEY/1");
  EXPECT_TRUE(issuer.is_revoked("/client0/KEY/1"));
  EXPECT_EQ(issuer.issue("/client0/KEY/1", 0, 0), nullptr);
  // Re-enrolling clears revocation.
  issuer.enroll("/client0/KEY/1", 1);
  EXPECT_NE(issuer.issue("/client0/KEY/1", 0, 0), nullptr);
}

TEST(TagIssuer, IssuedTagsVerifyUnderPki) {
  const auto keys = test_keypair();
  TagIssuer issuer("/provider0/KEY/1", keys.private_key, 10 * kSecond);
  issuer.enroll("/client0/KEY/1", 1);
  const TagPtr tag = issuer.issue("/client0/KEY/1", 0, 0);
  crypto::Pki pki;
  pki.add_key("/provider0/KEY/1", keys.public_key);
  EXPECT_TRUE(verify_tag_signature(*tag, pki));
}

TEST(TagIssuer, RevokeThenReenrollIssuesFreshCredentials) {
  const auto keys = test_keypair();
  TagIssuer issuer("/provider0/KEY/1", keys.private_key, 10 * kSecond);
  issuer.enroll("/client0/KEY/1", 1);
  const TagPtr before = issuer.issue("/client0/KEY/1", 3, kSecond);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->access_level(), 1u);

  issuer.revoke("/client0/KEY/1");
  EXPECT_EQ(issuer.issue("/client0/KEY/1", 3, 2 * kSecond), nullptr);

  // Re-enrollment at a different access level fully supersedes both the
  // revocation and the old grant.
  issuer.enroll("/client0/KEY/1", 2);
  EXPECT_FALSE(issuer.is_revoked("/client0/KEY/1"));
  const TagPtr after = issuer.issue("/client0/KEY/1", 3, 3 * kSecond);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->access_level(), 2u);
  EXPECT_EQ(after->expiry(), 3 * kSecond + 10 * kSecond);
}

TEST(TagIssuer, IssueAtExpiryBoundary) {
  const auto keys = test_keypair();
  TagIssuer issuer("/provider0/KEY/1", keys.private_key, 10 * kSecond);
  issuer.enroll("/client0/KEY/1", 1);
  const TagPtr tag = issuer.issue("/client0/KEY/1", 0, 5 * kSecond);
  ASSERT_NE(tag, nullptr);
  EXPECT_EQ(tag->expiry(), 15 * kSecond);
  const ndn::Name name("/provider0/obj1/c0");
  // Protocol 1 rejects strictly after T_e: at the boundary instant the
  // tag is still honoured.
  EXPECT_EQ(edge_precheck(*tag, name, 15 * kSecond), PrecheckResult::kOk);
  EXPECT_EQ(edge_precheck(*tag, name, 15 * kSecond + 1),
            PrecheckResult::kExpired);
  // The skew-tolerance overload widens the boundary by exactly the
  // window, no further.
  EXPECT_EQ(edge_precheck(*tag, name, 17 * kSecond, 2 * kSecond),
            PrecheckResult::kOk);
  EXPECT_EQ(edge_precheck(*tag, name, 17 * kSecond + 1, 2 * kSecond),
            PrecheckResult::kExpired);
}

TEST(TagIssuer, CountersAreMonotonicAcrossLifecycle) {
  const auto keys = test_keypair();
  TagIssuer issuer("/provider0/KEY/1", keys.private_key, 10 * kSecond);
  EXPECT_EQ(issuer.tags_issued(), 0u);
  EXPECT_EQ(issuer.refusals(), 0u);

  issuer.issue("/client0/KEY/1", 0, 0);  // never enrolled
  EXPECT_EQ(issuer.refusals(), 1u);
  issuer.enroll("/client0/KEY/1", 1);
  issuer.issue("/client0/KEY/1", 0, kSecond);
  issuer.issue("/client0/KEY/1", 0, 2 * kSecond);
  EXPECT_EQ(issuer.tags_issued(), 2u);
  issuer.revoke("/client0/KEY/1");
  issuer.issue("/client0/KEY/1", 0, 3 * kSecond);
  EXPECT_EQ(issuer.refusals(), 2u);
  issuer.enroll("/client0/KEY/1", 1);
  issuer.issue("/client0/KEY/1", 0, 4 * kSecond);
  // Refusals never reset a client's issuance history and vice versa:
  // both counters only grow, and every issue() attempt lands in exactly
  // one of them.
  EXPECT_EQ(issuer.tags_issued(), 3u);
  EXPECT_EQ(issuer.refusals(), 2u);
  EXPECT_EQ(issuer.tags_issued() + issuer.refusals(), 5u);
}

// ---------------------------------------------------------------------------
// Protocols 2-4 over a hand-built chain:
//   client -- AP -- edge -- core(content router) -- producer stub
// ---------------------------------------------------------------------------

struct ProtocolFixture : public ::testing::Test {
  struct Net {
    event::Scheduler sched;
    topology::Network network = topology::Network::empty(sched);
    ndn::Forwarder& noderef(net::NodeId id) { return network.node(id); }
  } net;

  TrustAnchors anchors;
  crypto::RsaKeyPair provider_keys = test_keypair(11);
  TagIssuer issuer{"/provider0/KEY/1", provider_keys.private_key,
                   10 * kSecond};
  TacticConfig config;

  net::NodeId client, edge, core, producer;
  ndn::FaceId client_app = ndn::kInvalidFace;
  ndn::FaceId producer_app = ndn::kInvalidFace;

  std::vector<ndn::Data> client_data;
  std::vector<ndn::Nack> client_nacks;
  int produced = 0;

  EdgeTacticPolicy* edge_policy = nullptr;
  CoreTacticPolicy* core_policy = nullptr;

  void SetUp() override {
    anchors.pki.add_key("/provider0/KEY/1", provider_keys.public_key);
    anchors.protected_prefixes.insert("/provider0");
    config.bloom = {500, 5, 1e-4};

    auto& network = net.network;
    client = network.add_node(net::NodeKind::kClient, "client0", 0);
    edge = network.add_node(net::NodeKind::kEdgeRouter, "edge0", 0);
    core = network.add_node(net::NodeKind::kCoreRouter, "core0", 100);
    producer = network.add_node(net::NodeKind::kProvider, "provider0", 0);
    // The client sits behind the wireless segment "ap0" (an L2 entity);
    // its egress policy accumulates the segment identity.
    network.connect(client, edge, net::edge_link_params());
    network.connect(edge, core, net::core_link_params());
    network.connect(core, producer, net::core_link_params());

    install_policies(ComputeModel::zero());

    client_app = network.node(client).add_app_face(ndn::AppSink{
        nullptr,
        [this](const ndn::Data& d) { client_data.push_back(d); },
        [this](const ndn::Nack& n) { client_nacks.push_back(n); }});
    producer_app = network.node(producer).add_app_face(ndn::AppSink{
        [this](ndn::FaceId face, const ndn::Interest& interest) {
          ++produced;
          ndn::Data data;
          data.name = interest.name;
          data.content_size = 1024;
          data.access_level = 1;
          data.provider_key_locator = "/provider0/KEY/1";
          data.tag = interest.tag;
          data.tag_wire_size = interest.tag_wire_size;
          data.flag_f = 0.0;  // the provider vouches after validation
          // Provider-side validation (it is the trusted origin).
          if (!interest.tag ||
              !verify_tag_signature(*interest.tag, anchors.pki) ||
              content_precheck(*interest.tag, data) != PrecheckResult::kOk) {
            data.nack_attached = true;
            data.nack_reason = ndn::NackReason::kInvalidSignature;
          }
          net.network.node(producer).inject_from_app(face, std::move(data));
        },
        nullptr, nullptr});

    network.node(client).fib().add_route(
        ndn::Name("/"), network.face_between(client, edge));
    network.node(producer).fib().add_route(ndn::Name("/provider0"),
                                           producer_app);
    network.install_routes(ndn::Name("/provider0"), producer);

    issuer.enroll("/client0/KEY/1", 2);
  }

  void install_policies(ComputeModel compute) {
    auto& network = net.network;
    network.node(client).set_policy(std::make_unique<ApPolicy>("ap0"));
    auto edge_p = std::make_unique<EdgeTacticPolicy>(config, anchors,
                                                     compute, util::Rng(21));
    edge_policy = edge_p.get();
    network.node(edge).set_policy(std::move(edge_p));
    auto core_p = std::make_unique<CoreTacticPolicy>(config, anchors,
                                                     compute, util::Rng(22));
    core_policy = core_p.get();
    network.node(core).set_policy(std::move(core_p));
  }

  /// A tag as the provider would issue it for this client at this
  /// location (the access path covers the AP between client and edge).
  TagPtr client_tag(event::Time now = 0) {
    return issuer.issue("/client0/KEY/1", entity_id_hash("ap0"), now);
  }

  void express(const ndn::Name& name, TagPtr tag) {
    ndn::Interest interest;
    interest.name = name;
    static std::uint64_t nonce = 1;
    interest.nonce = nonce++;
    interest.lifetime = kSecond;
    interest.tag = std::move(tag);
    interest.tag_wire_size = interest.tag ? interest.tag->wire_size() : 0;
    net.network.node(client).inject_from_app(client_app,
                                             std::move(interest));
  }

  void run() { net.sched.run(); }
};

TEST_F(ProtocolFixture, ValidTagFetchesContent) {
  express(ndn::Name("/provider0/obj1/c0"), client_tag());
  run();
  ASSERT_EQ(client_data.size(), 1u);
  EXPECT_FALSE(client_data[0].nack_attached);
  EXPECT_EQ(produced, 1);
}

TEST_F(ProtocolFixture, NoTagIsNackedAtEdge) {
  express(ndn::Name("/provider0/obj1/c0"), nullptr);
  run();
  EXPECT_TRUE(client_data.empty());
  ASSERT_EQ(client_nacks.size(), 1u);
  EXPECT_EQ(client_nacks[0].reason, ndn::NackReason::kNoTag);
  EXPECT_EQ(edge_policy->counters().no_tag_rejections, 1u);
  EXPECT_EQ(produced, 0);  // never left the edge
}

TEST_F(ProtocolFixture, ExpiredTagDroppedAtEdge) {
  const TagPtr stale = client_tag(-20 * kSecond);  // expired before t=0
  express(ndn::Name("/provider0/obj1/c0"), stale);
  run();
  EXPECT_TRUE(client_data.empty());
  EXPECT_EQ(edge_policy->counters().precheck_rejections, 1u);
  EXPECT_EQ(produced, 0);
}

TEST_F(ProtocolFixture, WrongProviderPrefixDroppedAtEdge) {
  // Tag names provider0 but the request targets another prefix; make that
  // prefix routable and protected to isolate the pre-check.
  anchors.protected_prefixes.insert("/provider1");
  net.network.node(edge).fib().add_route(
      ndn::Name("/provider1"), net.network.face_between(edge, core));
  express(ndn::Name("/provider1/obj1/c0"), client_tag());
  run();
  EXPECT_TRUE(client_data.empty());
  EXPECT_EQ(edge_policy->counters().precheck_rejections, 1u);
}

TEST_F(ProtocolFixture, ForgedTagGetsNackedContent) {
  const auto forger = test_keypair(99);
  Tag::Fields fields = basic_fields();
  fields.access_path = entity_id_hash("ap0");
  const TagPtr forged = forge_tag(fields, forger.private_key);
  express(ndn::Name("/provider0/obj1/c0"), forged);
  run();
  // The provider detects the forgery and returns content-with-NACK; the
  // edge suppresses delivery, so the client sees nothing.
  EXPECT_TRUE(client_data.empty());
  EXPECT_EQ(produced, 1);
}

TEST_F(ProtocolFixture, FlagFZeroOnFirstUseThenNonzero) {
  const TagPtr tag = client_tag();
  express(ndn::Name("/provider0/obj1/c0"), tag);
  run();
  ASSERT_EQ(client_data.size(), 1u);
  // First use: edge miss -> F = 0; provider vouches; edge inserted.
  EXPECT_EQ(edge_policy->counters().bf_insertions, 1u);
  EXPECT_TRUE(edge_policy->bloom().contains(tag->bloom_key()));

  // Second use of the same tag: edge BF hit, so the content router (core,
  // now caching the chunk) sees F != 0 and trusts or spot-checks.
  express(ndn::Name("/provider0/obj1/c0"), tag);
  run();
  ASSERT_EQ(client_data.size(), 2u);
  EXPECT_EQ(produced, 1);  // second answered from the core cache
  EXPECT_TRUE(client_data[1].from_cache);
}

TEST_F(ProtocolFixture, ContentRouterVerifiesWhenEdgeCannotVouch) {
  // Warm the core cache with a first fetch.
  const TagPtr tag1 = client_tag();
  express(ndn::Name("/provider0/obj1/c0"), tag1);
  run();
  const std::uint64_t verifications_before =
      core_policy->counters().sig_verifications;

  // A different (fresh) tag, unknown to the edge BF: F=0 reaches the
  // content router, which must verify and insert it.
  const TagPtr tag2 = client_tag(kMillisecond);
  express(ndn::Name("/provider0/obj1/c0"), tag2);
  run();
  EXPECT_EQ(core_policy->counters().sig_verifications,
            verifications_before + 1);
  EXPECT_TRUE(core_policy->bloom().contains(tag2->bloom_key()));
  ASSERT_EQ(client_data.size(), 2u);
  EXPECT_TRUE(client_data[1].from_cache);
}

TEST_F(ProtocolFixture, InsufficientAccessLevelNackedAtContentRouter) {
  // Warm cache.
  express(ndn::Name("/provider0/obj1/c0"), client_tag());
  run();
  ASSERT_EQ(client_data.size(), 1u);

  // An AL-0 tag cannot satisfy AL-1 content: content pre-check trips at
  // the content router, content-with-NACK flows, edge drops delivery.
  issuer.enroll("/lowpriv/KEY/1", 0);
  const TagPtr low = issuer.issue("/lowpriv/KEY/1",
                                  entity_id_hash("ap0"), 0);
  express(ndn::Name("/provider0/obj1/c0"), low);
  run();
  EXPECT_EQ(client_data.size(), 1u);  // nothing new delivered
  EXPECT_GE(core_policy->counters().precheck_rejections, 1u);
}

TEST_F(ProtocolFixture, AccessPathEnforcementBlocksSharedTag) {
  config.enforce_access_path = true;
  install_policies(ComputeModel::zero());

  // A tag issued for a *different* location (AP hash differs).
  const TagPtr elsewhere =
      issuer.issue("/client0/KEY/1", entity_id_hash("some-other-ap"), 0);
  express(ndn::Name("/provider0/obj1/c0"), elsewhere);
  run();
  EXPECT_TRUE(client_data.empty());
  ASSERT_EQ(client_nacks.size(), 1u);
  EXPECT_EQ(client_nacks[0].reason, ndn::NackReason::kAccessPathMismatch);
  EXPECT_EQ(edge_policy->counters().access_path_rejections, 1u);

  // The correctly-located tag passes.
  express(ndn::Name("/provider0/obj1/c0"), client_tag());
  run();
  EXPECT_EQ(client_data.size(), 1u);
}

TEST_F(ProtocolFixture, AccessPathOffAcceptsSharedTag) {
  ASSERT_FALSE(config.enforce_access_path);
  const TagPtr elsewhere =
      issuer.issue("/client0/KEY/1", entity_id_hash("some-other-ap"), 0);
  express(ndn::Name("/provider0/obj1/c0"), elsewhere);
  run();
  // Without the future-work feature, location sharing is not detected.
  EXPECT_EQ(client_data.size(), 1u);
}

TEST_F(ProtocolFixture, RegistrationResponseInsertsIntoEdgeBloom) {
  // Simulate the provider responding to a registration with a fresh tag.
  net.network.node(producer).fib().remove_route(ndn::Name("/provider0"));
  const ndn::FaceId reg_app =
      net.network.node(producer).add_app_face(ndn::AppSink{
          [this](ndn::FaceId face, const ndn::Interest& interest) {
            ndn::Data response;
            response.name = interest.name;
            response.is_registration_response = true;
            response.tag = issuer.issue("/client0/KEY/1",
                                        interest.access_path,
                                        net.sched.now());
            response.tag_wire_size = response.tag->wire_size();
            net.network.node(producer).inject_from_app(face,
                                                       std::move(response));
          },
          nullptr, nullptr});
  net.network.node(producer).fib().add_route(ndn::Name("/provider0"),
                                             reg_app);

  ndn::Interest reg;
  reg.name = ndn::Name("/provider0/register/client0/1");
  reg.nonce = 777;
  net.network.node(client).inject_from_app(client_app, std::move(reg));
  run();
  ASSERT_EQ(client_data.size(), 1u);
  ASSERT_TRUE(client_data[0].is_registration_response);
  ASSERT_NE(client_data[0].tag, nullptr);
  // Protocol 2 lines 11-12: the fresh tag is already in the edge BF.
  EXPECT_TRUE(
      edge_policy->bloom().contains(client_data[0].tag->bloom_key()));
  // The access path accumulated by the registration Interest equals the
  // AP's identity hash, and is signed into the tag.
  EXPECT_EQ(client_data[0].tag->access_path(), entity_id_hash("ap0"));
}

TEST_F(ProtocolFixture, BloomSaturationTriggersReset) {
  TacticConfig small = config;
  small.bloom.capacity = 20;
  net.network.node(edge).set_policy(std::make_unique<EdgeTacticPolicy>(
      small, anchors, ComputeModel::zero(), util::Rng(33)));
  auto* policy = dynamic_cast<EdgeTacticPolicy*>(
      &net.network.node(edge).policy());

  // Drive enough distinct fresh tags through to saturate the small BF
  // (inserts happen on data return with F == 0).  Tags are minted at the
  // current simulation time: each drained run() advances the clock past
  // the PIT lifetimes, so stale timestamps would expire mid-test.
  for (int i = 0; i < 60; ++i) {
    express(ndn::Name("/provider0/obj1/c" + std::to_string(i)),
            client_tag(net.sched.now()));
    run();
  }
  EXPECT_GE(policy->bf_resets(), 1u);
  EXPECT_FALSE(policy->counters().requests_per_reset.empty());
}

TEST_F(ProtocolFixture, PrecheckAblationFallsThroughToCrypto) {
  config.precheck = false;
  install_policies(ComputeModel::zero());
  // An expired tag now sails past the edge (no pre-check) and is caught
  // by signature-level machinery only if invalid -- here the signature is
  // VALID, so the expired tag actually retrieves content: the ablation
  // demonstrates what Protocol 1 is for.
  express(ndn::Name("/provider0/obj1/c0"), client_tag(-20 * kSecond));
  run();
  EXPECT_EQ(client_data.size(), 1u);
}

TEST_F(ProtocolFixture, ApAccumulatesAccessPath) {
  // Verified indirectly: a registration Interest's access path arriving
  // at the producer equals hash("ap0"); see
  // RegistrationResponseInsertsIntoEdgeBloom.  Here check a content
  // Interest as observed by the core router via its PIT record.
  express(ndn::Name("/provider0/obj9/c9"), client_tag());
  run();
  SUCCEED();
}

}  // namespace
}  // namespace tactic::core
