// Tests for the role validations (tactic/pipeline.hpp): each check's
// verdicts, counters and compute charges as the role function that runs
// it reaches them, once per role where several roles share a check; the
// ProbBf baseline's Interest path; the per-check compute breakdown
// invariant; and the fingerprint and verdict parity check against the
// goldens over the fixed-seed fuzz corpus.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "crypto/rsa.hpp"
#include "event/scheduler.hpp"
#include "ndn/forwarder.hpp"
#include "sim/scenario.hpp"
#include "tactic/pipeline.hpp"
#include "tactic/tag.hpp"
#include "testing/fingerprint.hpp"
#include "testing/generator.hpp"
#include "util/bytes.hpp"

namespace tactic::core {
namespace {

namespace tt = ::tactic::testing;
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

/// The three roles that validate a tag against content.
constexpr Verdict (*kDataPathRoles[])(ValidationContext&) = {
    validate_edge_aggregate, validate_content_cache_hit,
    validate_core_aggregate};

/// One engine + one signed tag (and a forgery of it), with the provider
/// key in the PKI, plus the Interest name and content the checks compare
/// the tag against.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : keys_(test_keypair()) {
    anchors_.pki.add_key("/provider0/KEY/1", keys_.public_key);
    anchors_.protected_prefixes.insert("/provider0");
    tag_ = issue_tag(basic_fields(), keys_.private_key);
    forged_ = forge_tag(basic_fields(), test_keypair(2).private_key);
    name_ = ndn::Name("/provider0/videos/1");
    content_ = protected_data();
  }

  ValidationEngine make_engine(ComputeModel compute = ComputeModel::zero()) {
    return ValidationEngine(config_, anchors_, compute, util::Rng(7));
  }

  ndn::Data protected_data() {
    ndn::Data data;
    data.access_level = 2;
    data.provider_key_locator = "/provider0/KEY/1";
    return data;
  }

  /// An edge Interest-path context for the valid tag.
  ValidationContext interest_ctx(ValidationEngine& engine, event::Time now) {
    ValidationContext ctx(engine, *tag_, now);
    ctx.interest_name = &name_;
    return ctx;
  }

  /// A data-path context (edge aggregate, cache hit, core aggregate)
  /// checking `tag` against `content` (default: protected content).
  ValidationContext data_ctx(ValidationEngine& engine, event::Time now,
                             const Tag* tag = nullptr,
                             const ndn::Data* content = nullptr) {
    ValidationContext ctx(engine, tag ? *tag : *tag_, now);
    ctx.content = content ? content : &content_;
    return ctx;
  }

  crypto::RsaKeyPair keys_;
  TrustAnchors anchors_;
  TacticConfig config_;
  TagPtr tag_;
  TagPtr forged_;
  ndn::Name name_;
  ndn::Data content_;
};

// ---------------------------------------------------------------------------
// Protocol 1 pre-check: edge Interest half, content half in three roles
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, PrecheckInterestPassesValidTag) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = interest_ctx(engine, kSecond);
  const Verdict verdict = validate_edge_interest(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kContinue);  // BF miss: unvouched
  EXPECT_EQ(engine.counters().precheck_rejections, 0u);
  EXPECT_EQ(engine.counters().bf_lookups, 1u);  // reached the BF stamp
  EXPECT_EQ(ctx.compute, 0);  // Protocol 1 is the un-charged cheap check
}

TEST_F(PipelineTest, PrecheckInterestRejectsExpiredTagSilently) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = interest_ctx(engine, 11 * kSecond);  // past expiry
  const Verdict verdict = validate_edge_interest(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_TRUE(verdict.silent);
  EXPECT_EQ(verdict.reason, to_nack_reason(PrecheckResult::kExpired));
  EXPECT_EQ(engine.counters().precheck_rejections, 1u);
  EXPECT_EQ(engine.counters().bf_lookups, 0u);  // first check stops the run
}

TEST_F(PipelineTest, PrecheckInterestHonoursInjectedExpiryBug) {
  config_.fault_skip_expiry_precheck = true;
  ValidationEngine engine = make_engine();
  ValidationContext ctx = interest_ctx(engine, 11 * kSecond);
  EXPECT_EQ(validate_edge_interest(ctx).kind, Verdict::Kind::kContinue);
  EXPECT_EQ(engine.counters().precheck_rejections, 0u);
}

TEST_F(PipelineTest, PrecheckDisabledPassesEverything) {
  config_.precheck = false;
  ValidationEngine engine = make_engine();
  ValidationContext ctx = interest_ctx(engine, 11 * kSecond);  // expired
  EXPECT_EQ(validate_edge_interest(ctx).kind, Verdict::Kind::kContinue);

  // The content half is off too: an access level above the tag's AL_u
  // reaches signature verification in every data-path role.
  ndn::Data data = protected_data();
  data.access_level = 9;
  for (const auto validate : kDataPathRoles) {
    ValidationEngine fresh = make_engine();
    ValidationContext ctx = data_ctx(fresh, kSecond, nullptr, &data);
    EXPECT_EQ(validate(ctx).kind, Verdict::Kind::kVouch);
    EXPECT_EQ(fresh.counters().precheck_rejections, 0u);
    EXPECT_EQ(fresh.counters().sig_verifications, 1u);
  }
  EXPECT_EQ(engine.counters().precheck_rejections, 0u);
}

TEST_F(PipelineTest, PrecheckContentPassesPublicUnconditionally) {
  ValidationEngine engine = make_engine();
  ndn::Data data;  // access_level = kPublicAccessLevel
  data.provider_key_locator = "/provider9/KEY/1";  // would mismatch
  ValidationContext content = data_ctx(engine, kSecond, nullptr, &data);
  EXPECT_EQ(validate_content_cache_hit(content).kind, Verdict::Kind::kVouch);
  ValidationContext edge = data_ctx(engine, kSecond, nullptr, &data);
  EXPECT_EQ(validate_edge_aggregate(edge).kind, Verdict::Kind::kVouch);
  ValidationContext core = data_ctx(engine, kSecond, nullptr, &data);
  EXPECT_EQ(validate_core_aggregate(core).kind, Verdict::Kind::kVouch);
  EXPECT_EQ(engine.counters().precheck_rejections, 0u);
  // Each role went on to its next check: the cache-hit and core paths
  // verified; the edge aggregate hit the tag the cache hit inserted.
  EXPECT_EQ(engine.counters().sig_verifications, 2u);
  EXPECT_EQ(engine.counters().bf_lookups, 2u);
}

TEST_F(PipelineTest, PrecheckContentFailActionSelectsNackReason) {
  ValidationEngine engine = make_engine();
  ndn::Data data = protected_data();
  data.access_level = 9;  // above the tag's AL_u = 2

  // Content router: NACK with the precise cause.
  ValidationContext content = data_ctx(engine, kSecond, nullptr, &data);
  Verdict verdict = validate_content_cache_hit(content);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_FALSE(verdict.silent);
  EXPECT_EQ(verdict.reason,
            to_nack_reason(PrecheckResult::kAccessLevelTooLow));

  // Intermediate router: generic invalid-tag NACK.
  ValidationContext core = data_ctx(engine, kSecond, nullptr, &data);
  verdict = validate_core_aggregate(core);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kInvalidSignature);
  EXPECT_EQ(engine.counters().precheck_rejections, 2u);

  // Edge aggregate: silent drop.
  ValidationContext edge = data_ctx(engine, kSecond, nullptr, &data);
  verdict = validate_edge_aggregate(edge);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_TRUE(verdict.silent);
  EXPECT_EQ(verdict.reason,
            to_nack_reason(PrecheckResult::kAccessLevelTooLow));
  EXPECT_EQ(engine.counters().precheck_rejections, 3u);
  // No role went past the pre-check.
  EXPECT_EQ(engine.counters().bf_lookups, 0u);
  EXPECT_EQ(engine.counters().sig_verifications, 0u);
}

// ---------------------------------------------------------------------------
// Edge Interest: blacklist and access path
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, BlacklistPassesWhenEmptyAndRejectsWhenListed) {
  ValidationEngine engine = make_engine();
  ValidationContext clean = interest_ctx(engine, kSecond);
  EXPECT_EQ(validate_edge_interest(clean).kind, Verdict::Kind::kContinue);

  anchors_.revocations.blacklist(*tag_, 3);
  ValidationContext listed = interest_ctx(engine, kSecond);
  const Verdict verdict = validate_edge_interest(listed);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kExpiredTag);
  EXPECT_EQ(engine.counters().blacklist_rejections, 1u);
  EXPECT_EQ(anchors_.revocations.push_messages, 3u);
}

TEST_F(PipelineTest, AccessPathEnforcementRejectsMismatch) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = interest_ctx(engine, kSecond);
  ctx.access_path = 0x1234;  // mismatches the tag, but not enforced
  EXPECT_EQ(validate_edge_interest(ctx).kind, Verdict::Kind::kContinue);

  config_.enforce_access_path = true;
  ValidationEngine strict = make_engine();
  ValidationContext match = interest_ctx(strict, kSecond);
  match.access_path = 0xDEADBEEF;
  EXPECT_EQ(validate_edge_interest(match).kind, Verdict::Kind::kContinue);

  ValidationContext mismatch = interest_ctx(strict, kSecond);
  mismatch.access_path = 0x1234;
  const Verdict verdict = validate_edge_interest(mismatch);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kAccessPathMismatch);
  EXPECT_EQ(strict.counters().access_path_rejections, 1u);
  EXPECT_EQ(engine.counters().access_path_rejections, 0u);
}

// ---------------------------------------------------------------------------
// Edge Interest: negative cache
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, NegativeCacheInertWhileOverloadDisabled) {
  config_.flag_cooperation = false;  // no BF stamp: nothing else charges
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  engine.remember_invalid(*tag_, kSecond);  // would condemn the tag
  ValidationContext ctx = interest_ctx(engine, kSecond);
  EXPECT_EQ(validate_edge_interest(ctx).kind, Verdict::Kind::kContinue);
  EXPECT_EQ(ctx.compute, 0);  // no probe, no charge
  EXPECT_EQ(engine.counters().neg_cache_hits, 0u);
}

TEST_F(PipelineTest, NegativeCacheRejectsRememberedTag) {
  config_.overload.enabled = true;
  config_.flag_cooperation = false;  // no BF stamp: the probe is the charge
  ValidationEngine engine = make_engine(ComputeModel::deterministic());

  ValidationContext miss = interest_ctx(engine, kSecond);
  EXPECT_EQ(validate_edge_interest(miss).kind, Verdict::Kind::kContinue);
  EXPECT_GT(miss.compute, 0);  // the probe is charged even on a miss
  EXPECT_EQ(engine.counters().compute_neg, engine.counters().compute_charged);

  engine.remember_invalid(*tag_, kSecond);
  ValidationContext hit = interest_ctx(engine, kSecond);
  const Verdict verdict = validate_edge_interest(hit);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kInvalidSignature);
  EXPECT_EQ(engine.counters().neg_cache_hits, 1u);
  EXPECT_EQ(engine.counters().neg_cache_insertions, 1u);
}

// ---------------------------------------------------------------------------
// Overload admission: queue capacity, watermark per role, policer
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, AdmissionInertWhileOverloadDisabled) {
  config_.overload.queue_capacity = 0;  // would shed everything if live
  config_.overload.shed_watermark = 0;
  ValidationEngine engine = make_engine();
  ValidationContext ctx = interest_ctx(engine, kSecond);
  EXPECT_EQ(validate_edge_interest(ctx).kind, Verdict::Kind::kContinue);
  EXPECT_EQ(engine.counters().sheds_queue_full, 0u);
  EXPECT_EQ(engine.counters().sheds_unvouched, 0u);

  // The data-path watermarks are inert too: each role verifies.
  for (const auto validate : kDataPathRoles) {
    ValidationEngine fresh = make_engine();
    ValidationContext data = data_ctx(fresh, kSecond);
    EXPECT_EQ(validate(data).kind, Verdict::Kind::kVouch);
    EXPECT_EQ(fresh.counters().sheds_unvouched, 0u);
    EXPECT_EQ(fresh.counters().sig_verifications, 1u);
  }
}

TEST_F(PipelineTest, AdmissionShedsAtQueueCapacity) {
  config_.overload.enabled = true;
  config_.overload.queue_capacity = 1;
  ValidationEngine engine = make_engine();
  event::Time compute = 0;
  engine.charge(0, kSecond, compute, CostKind::kSignature);  // backlog of 1

  ValidationContext ctx = interest_ctx(engine, 0);
  const Verdict verdict = validate_edge_interest(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kShed);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kRouterOverloaded);
  EXPECT_EQ(engine.counters().sheds_queue_full, 1u);
  EXPECT_EQ(engine.counters().bf_lookups, 0u);  // shed before the BF
}

TEST_F(PipelineTest, AdmissionWatermarkShedsUnvouchedButNotRevalidating) {
  config_.overload.enabled = true;
  config_.overload.shed_watermark = 1;
  ValidationEngine engine = make_engine();
  event::Time compute = 0;
  engine.charge(0, kSecond, compute, CostKind::kSignature);

  // Content router: an F-coin re-validation is vouched-class traffic.
  ValidationContext revalidating = data_ctx(engine, 0);
  revalidating.flag_f_in = 1.0;  // the coin always elects re-validation
  const Verdict verified = validate_content_cache_hit(revalidating);
  EXPECT_TRUE(revalidating.revalidating);
  EXPECT_EQ(verified.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(engine.counters().sheds_unvouched, 0u);
  EXPECT_EQ(engine.counters().sig_verifications, 1u);

  ValidationContext unvouched = data_ctx(engine, 0);
  EXPECT_EQ(validate_content_cache_hit(unvouched).kind,
            Verdict::Kind::kShed);
  EXPECT_EQ(engine.counters().sheds_unvouched, 1u);

  // Intermediate router: re-validations are shed like any other.
  ValidationContext shed_anyway = data_ctx(engine, 0);
  shed_anyway.flag_f_in = 1.0;
  EXPECT_EQ(validate_core_aggregate(shed_anyway).kind, Verdict::Kind::kShed);
  EXPECT_TRUE(shed_anyway.revalidating);
  EXPECT_EQ(engine.counters().sheds_unvouched, 2u);

  // Edge aggregate: a BF miss is shed before verification.
  ValidationContext aggregate = data_ctx(engine, 0);
  EXPECT_EQ(validate_edge_aggregate(aggregate).kind, Verdict::Kind::kShed);
  EXPECT_EQ(engine.counters().sheds_unvouched, 3u);

  // Edge Interest: an unvouched (BF-miss) Interest is shed too.
  ValidationContext interest = interest_ctx(engine, 0);
  EXPECT_EQ(validate_edge_interest(interest).kind, Verdict::Kind::kShed);
  EXPECT_EQ(engine.counters().sheds_unvouched, 4u);
  EXPECT_EQ(engine.counters().sig_verifications, 1u);
}

TEST_F(PipelineTest, AdmissionPolicerShedsPastBurst) {
  config_.overload.enabled = true;
  config_.overload.policer_rate = 1.0;
  config_.overload.policer_burst = 1.0;
  config_.overload.shed_watermark = 100;  // watermark never trips here
  ValidationEngine engine = make_engine();

  ValidationContext first = interest_ctx(engine, 0);
  first.in_face = 4;
  EXPECT_EQ(validate_edge_interest(first).kind, Verdict::Kind::kContinue);

  ValidationContext second = interest_ctx(engine, 0);
  second.in_face = 4;  // same face, bucket drained
  const Verdict verdict = validate_edge_interest(second);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kShed);
  EXPECT_EQ(engine.counters().policer_sheds, 1u);

  // BF-vouched Interests skip the policer.
  event::Time compute = 0;
  engine.bloom_insert(*tag_, 0, compute);
  ValidationContext vouched = interest_ctx(engine, 0);
  vouched.in_face = 4;
  EXPECT_EQ(validate_edge_interest(vouched).kind, Verdict::Kind::kVouch);
  EXPECT_EQ(engine.counters().policer_sheds, 1u);
}

// ---------------------------------------------------------------------------
// Bloom-filter vouching and the F coin, per role
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, BloomVouchStampMissStampsZero) {
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  ValidationContext ctx = interest_ctx(engine, kSecond);
  EXPECT_EQ(validate_edge_interest(ctx).kind, Verdict::Kind::kContinue);
  EXPECT_EQ(ctx.flag_f_out, std::optional<double>(0.0));
  EXPECT_EQ(engine.counters().bf_lookups, 1u);
  EXPECT_GT(engine.counters().compute_bf, 0);
}

TEST_F(PipelineTest, BloomVouchStampHitVouchesWithFilterFpp) {
  ValidationEngine engine = make_engine();
  event::Time compute = 0;
  engine.bloom_insert(*tag_, kSecond, compute);
  ValidationContext ctx = interest_ctx(engine, kSecond);
  const Verdict verdict = validate_edge_interest(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(verdict.flag_f, engine.bloom().current_fpp());
  EXPECT_GT(verdict.flag_f, 0.0);
  EXPECT_FALSE(ctx.flag_f_out.has_value());  // the policy stamps the vouch

  // The edge aggregate path vouches with the same filter FPP.
  ValidationContext aggregate = data_ctx(engine, kSecond);
  const Verdict forwarded = validate_edge_aggregate(aggregate);
  EXPECT_EQ(forwarded.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(forwarded.flag_f, verdict.flag_f);
  EXPECT_EQ(engine.counters().sig_verifications, 0u);
}

TEST_F(PipelineTest, BloomVouchStampSkipsLookupWithoutCooperation) {
  config_.flag_cooperation = false;
  ValidationEngine engine = make_engine();
  event::Time compute = 0;
  engine.bloom_insert(*tag_, kSecond, compute);  // would hit
  ValidationContext ctx = interest_ctx(engine, kSecond);
  EXPECT_EQ(validate_edge_interest(ctx).kind, Verdict::Kind::kContinue);
  EXPECT_EQ(ctx.flag_f_out, std::optional<double>(0.0));
  EXPECT_EQ(engine.counters().bf_lookups, 0u);  // ablation: no lookup
}

TEST_F(PipelineTest, BloomVouchFlagAwareZeroFlagConsultsLocalFilter) {
  ValidationEngine engine = make_engine();

  // A miss falls through to verification; a failed one leaves F as-is.
  ValidationContext miss = data_ctx(engine, kSecond, forged_.get());
  EXPECT_EQ(validate_content_cache_hit(miss).kind, Verdict::Kind::kReject);
  EXPECT_EQ(engine.counters().sig_verifications, 1u);
  EXPECT_FALSE(miss.flag_f_out.has_value());  // F untouched on fall-through

  event::Time compute = 0;
  engine.bloom_insert(*tag_, kSecond, compute);
  ValidationContext hit = data_ctx(engine, kSecond);
  const Verdict verdict = validate_content_cache_hit(hit);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(verdict.flag_f, 0.0);
  EXPECT_EQ(hit.flag_f_out, std::optional<double>(0.0));
  EXPECT_EQ(engine.counters().bf_lookups, 2u);
  EXPECT_EQ(engine.counters().sig_verifications, 1u);  // the hit vouched
}

TEST_F(PipelineTest, BloomVouchFlagAwareCoinElectsRevalidation) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = data_ctx(engine, kSecond);
  ctx.flag_f_in = 1.0;  // the coin always elects re-validation
  const Verdict verdict = validate_content_cache_hit(ctx);
  EXPECT_TRUE(ctx.revalidating);
  EXPECT_EQ(engine.counters().sig_verifications, 1u);  // fell through
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(ctx.flag_f_out, std::optional<double>(1.0));  // F echoed
  EXPECT_EQ(engine.counters().probabilistic_revalidations, 1u);
  EXPECT_EQ(engine.counters().bf_lookups, 0u);  // no local lookup with F>0
}

TEST_F(PipelineTest, BloomVouchCoinOnlyTrustsEdgeOnTails) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = data_ctx(engine, kSecond);
  ctx.flag_f_in = 1e-300;  // tails, for any realisable draw
  const Verdict verdict = validate_core_aggregate(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(verdict.flag_f, 1e-300);
  EXPECT_EQ(ctx.flag_f_out, std::optional<double>(1e-300));
  EXPECT_FALSE(ctx.revalidating);
  EXPECT_EQ(engine.counters().probabilistic_revalidations, 0u);

  // The content router trusts the same tails: F echoed, no verification.
  ValidationContext content = data_ctx(engine, kSecond);
  content.flag_f_in = 1e-300;
  const Verdict echoed = validate_content_cache_hit(content);
  EXPECT_EQ(echoed.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(echoed.flag_f, 1e-300);
  EXPECT_EQ(content.flag_f_out, std::optional<double>(1e-300));
  EXPECT_EQ(engine.counters().probabilistic_revalidations, 0u);
  EXPECT_EQ(engine.counters().sig_verifications, 0u);
}

TEST_F(PipelineTest, BloomVouchCoinOnlyHeadsFallsThroughUnstamped) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = data_ctx(engine, kSecond, forged_.get());
  ctx.flag_f_in = 1.0;
  EXPECT_EQ(validate_core_aggregate(ctx).kind, Verdict::Kind::kReject);
  EXPECT_EQ(engine.counters().sig_verifications, 1u);  // fell through
  EXPECT_TRUE(ctx.revalidating);
  EXPECT_FALSE(ctx.flag_f_out.has_value());
  EXPECT_EQ(engine.counters().probabilistic_revalidations, 1u);
}

// ---------------------------------------------------------------------------
// Signature verification and its per-role outcome
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, SignatureVerifyEdgeAggregateInsertsOnSuccess) {
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  ValidationContext ctx = data_ctx(engine, kSecond);
  const Verdict verdict = validate_edge_aggregate(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(engine.counters().sig_verifications, 1u);
  EXPECT_EQ(engine.counters().bf_insertions, 1u);
  EXPECT_GT(engine.counters().compute_sig, 0);
  EXPECT_FALSE(ctx.flag_f_out.has_value());  // edge aggregates keep F as-is
  EXPECT_EQ(ctx.deferred, nullptr);          // batching off: synchronous
}

TEST_F(PipelineTest, SignatureVerifyEdgeAggregateDropsForgerySilently) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = data_ctx(engine, kSecond, forged_.get());
  const Verdict verdict = validate_edge_aggregate(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_TRUE(verdict.silent);  // "drop otherwise"
  EXPECT_EQ(verdict.reason, ndn::NackReason::kNone);
  EXPECT_EQ(engine.counters().sig_failures, 1u);
  EXPECT_EQ(engine.counters().bf_insertions, 0u);
}

TEST_F(PipelineTest, SignatureVerifyCacheHitFreshInsertsAndStampsZero) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = data_ctx(engine, kSecond);
  const Verdict verdict = validate_content_cache_hit(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(ctx.flag_f_out, std::optional<double>(0.0));
  EXPECT_EQ(engine.counters().bf_insertions, 1u);
}

TEST_F(PipelineTest, SignatureVerifyCacheHitRevalidationDoesNotInsert) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = data_ctx(engine, kSecond);
  ctx.flag_f_in = 1.0;  // the coin always elects re-validation
  const Verdict verdict = validate_content_cache_hit(ctx);
  EXPECT_TRUE(ctx.revalidating);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(verdict.flag_f, 1.0);  // the echoed F stands
  EXPECT_EQ(ctx.flag_f_out, std::optional<double>(1.0));
  EXPECT_EQ(engine.counters().sig_verifications, 1u);
  EXPECT_EQ(engine.counters().bf_insertions, 0u);
}

TEST_F(PipelineTest, SignatureVerifyCoreAggregateInsertsOnRevalidation) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = data_ctx(engine, kSecond);
  ctx.flag_f_in = 1.0;  // the coin always elects re-validation
  const Verdict verdict = validate_core_aggregate(ctx);
  EXPECT_TRUE(ctx.revalidating);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(verdict.flag_f, 0.0);
  EXPECT_EQ(ctx.flag_f_out, std::optional<double>(0.0));  // re-stamps F=0
  EXPECT_EQ(engine.counters().bf_insertions, 1u);

  // A fresh (F=0) verification inserts and stamps F=0 as well.
  ValidationContext fresh = data_ctx(engine, kSecond);
  EXPECT_EQ(validate_core_aggregate(fresh).kind, Verdict::Kind::kVouch);
  EXPECT_EQ(fresh.flag_f_out, std::optional<double>(0.0));
  EXPECT_EQ(engine.counters().bf_insertions, 2u);
}

TEST_F(PipelineTest, SignatureVerifyFailureNacksInvalidSignature) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx = data_ctx(engine, kSecond, forged_.get());
  const Verdict verdict = validate_content_cache_hit(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_FALSE(verdict.silent);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kInvalidSignature);

  ValidationContext core = data_ctx(engine, kSecond, forged_.get());
  const Verdict nacked = validate_core_aggregate(core);
  EXPECT_EQ(nacked.kind, Verdict::Kind::kReject);
  EXPECT_FALSE(nacked.silent);
  EXPECT_EQ(nacked.reason, ndn::NackReason::kInvalidSignature);
  EXPECT_EQ(engine.counters().sig_failures, 2u);
  EXPECT_EQ(engine.counters().bf_insertions, 0u);
}

TEST_F(PipelineTest, SignatureVerifyConsultsNegativeCacheUnderOverload) {
  config_.overload.enabled = true;
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  engine.remember_invalid(*tag_, kSecond);
  ValidationContext ctx = data_ctx(engine, kSecond);
  const Verdict verdict = validate_content_cache_hit(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(engine.counters().neg_cache_hits, 1u);
  EXPECT_EQ(engine.counters().sig_verifications, 0u);  // probe short-circuits
  EXPECT_GT(engine.counters().compute_neg, 0);
  EXPECT_EQ(engine.counters().compute_sig, 0);

  ValidationContext core = data_ctx(engine, kSecond);
  EXPECT_EQ(validate_core_aggregate(core).kind, Verdict::Kind::kReject);
  ValidationContext edge = data_ctx(engine, kSecond);
  const Verdict dropped = validate_edge_aggregate(edge);
  EXPECT_EQ(dropped.kind, Verdict::Kind::kReject);
  EXPECT_TRUE(dropped.silent);
  EXPECT_EQ(engine.counters().neg_cache_hits, 3u);
  EXPECT_EQ(engine.counters().sig_verifications, 0u);
  EXPECT_EQ(engine.counters().compute_sig, 0);
}

// ---------------------------------------------------------------------------
// ProbBf baseline Interest path (authorized-set filter + signature charge)
// ---------------------------------------------------------------------------

/// A ProbBf router on a bare Forwarder (as in ndn_test), its authorized
/// set holding client0's key locator.
struct ProbBfRouter {
  ProbBfRouter()
      : policy(shared(), bloom::BloomParams{},
               ComputeModel::deterministic(), util::Rng(7)) {}

  static std::shared_ptr<const baselines::ProbBfPolicy::Shared> shared() {
    auto set = std::make_shared<baselines::ProbBfPolicy::Shared>();
    set->authorized.insert("/client0/KEY/1");
    return set;
  }

  ndn::AccessControlPolicy::InterestDecision request(const TagPtr& tag) {
    auto interest = node.pool().make_interest();
    interest->name = ndn::Name("/provider0/videos/1");
    interest->tag = tag;
    ndn::CowInterest cow(std::move(interest), node.pool());
    return policy.on_interest(node, 1, cow);
  }

  event::Scheduler sched;
  ndn::Forwarder node{sched, net::NodeInfo{0, net::NodeKind::kCoreRouter, "r"},
                      0};
  baselines::ProbBfPolicy policy;
};

using Action = ndn::AccessControlPolicy::InterestDecision::Action;

TEST_F(PipelineTest, AuthorizedSetFiltersOnClientKeyMembership) {
  ProbBfRouter router;
  Tag::Fields outsider = basic_fields();
  outsider.client_key_locator = "/client9/KEY/1";
  const TagPtr unknown = issue_tag(outsider, keys_.private_key);

  const auto rejected = router.request(unknown);
  EXPECT_EQ(rejected.action, Action::kDropWithNack);
  EXPECT_EQ(rejected.nack_reason, ndn::NackReason::kInvalidSignature);
  EXPECT_GT(rejected.compute, 0);  // the BF probe is charged
  EXPECT_EQ(router.policy.counters().sig_verifications, 0u);
  EXPECT_EQ(router.policy.counters().bf_insertions, 1u);  // lazy load

  const auto member = router.request(tag_);
  EXPECT_EQ(member.action, Action::kContinue);
  EXPECT_EQ(router.policy.counters().bf_lookups, 2u);
  EXPECT_GT(router.policy.counters().compute_bf, 0);

  // A restart wipes the filter; the next request reloads it.
  router.policy.on_restart(router.node);
  EXPECT_FALSE(
      router.policy.bloom().contains(util::to_bytes("/client0/KEY/1")));
  EXPECT_EQ(router.request(tag_).action, Action::kContinue);
  EXPECT_EQ(router.policy.counters().bf_insertions, 2u);
  EXPECT_EQ(router.policy.counters().bf_lookups, 3u);
}

TEST_F(PipelineTest, SignatureVerifyChargeOnlyAlwaysSucceeds) {
  // ProbBf routers hold no PKI: a real verification of even the forged
  // tag would fail, but only its cost is modelled.
  ProbBfRouter router;
  const auto decision = router.request(forged_);
  EXPECT_EQ(decision.action, Action::kContinue);
  EXPECT_EQ(router.policy.counters().sig_verifications, 1u);
  EXPECT_EQ(router.policy.counters().sig_failures, 0u);
  EXPECT_GT(router.policy.counters().compute_sig, 0);
  EXPECT_EQ(decision.compute, router.policy.counters().compute_charged);
}

// ---------------------------------------------------------------------------
// Role validations and the charge() seam
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, PipelineStopsAtFirstTerminalVerdict) {
  ValidationEngine engine = make_engine();
  anchors_.revocations.blacklist(*tag_, 1);
  ValidationContext ctx = interest_ctx(engine, kSecond);
  const Verdict verdict = validate_edge_interest(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kExpiredTag);
  // The blacklist fired before any BF work: nothing further was charged.
  EXPECT_EQ(engine.counters().bf_lookups, 0u);
  EXPECT_EQ(engine.counters().compute_charged, 0);
}

TEST_F(PipelineTest, ComputeBreakdownSumsToTotalCharge) {
  config_.overload.enabled = true;
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  for (int i = 0; i < 50; ++i) {
    ValidationContext interest = interest_ctx(engine, i * kSecond);
    validate_edge_interest(interest);
    ValidationContext edge = data_ctx(engine, i * kSecond);
    validate_edge_aggregate(edge);
    ValidationContext content = data_ctx(engine, i * kSecond, forged_.get());
    validate_content_cache_hit(content);
    ValidationContext core = data_ctx(engine, i * kSecond);
    core.flag_f_in = 1.0;
    validate_core_aggregate(core);
  }
  const TacticCounters& c = engine.counters();
  EXPECT_GT(c.compute_charged, 0);
  EXPECT_GT(c.compute_neg, 0);
  EXPECT_GT(c.compute_sig, 0);
  EXPECT_EQ(c.compute_bf + c.compute_sig + c.compute_neg, c.compute_charged);
}

TEST_F(PipelineTest, WipeVolatileClearsEngineState) {
  config_.overload.enabled = true;
  ValidationEngine engine = make_engine();
  event::Time compute = 0;
  engine.bloom_insert(*tag_, kSecond, compute);
  engine.remember_invalid(*tag_, kSecond);
  EXPECT_TRUE(engine.bloom().contains(tag_->bloom_key()));
  EXPECT_GT(engine.neg_cache().size(), 0u);

  engine.wipe_volatile();
  EXPECT_FALSE(engine.bloom().contains(tag_->bloom_key()));
  EXPECT_EQ(engine.neg_cache().size(), 0u);
  EXPECT_EQ(engine.counters().requests_since_reset, 0u);
}

// ---------------------------------------------------------------------------
// Fingerprint and verdict parity against the goldens
// ---------------------------------------------------------------------------

struct GoldenEntry {
  std::string mode;
  std::uint64_t seed = 0;
  std::string digest;
};

std::vector<GoldenEntry> load_goldens(const char* path,
                                      const std::string& mode) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden list: " << path;
  std::vector<GoldenEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    GoldenEntry entry;
    fields >> entry.mode >> entry.seed >> entry.digest;
    if (entry.mode == mode) entries.push_back(entry);
  }
  return entries;
}

// Re-runs the fixed-seed fuzz corpus for one mode and compares every
// scenario's metrics fingerprint and verdict multiset against the
// goldens.  Those were captured from the pre-pipeline monolith, except
// the `layers` lines, captured when that mode was added, and one
// seed-9014 fingerprint line: a latency sum moved by one ulp when the
// client samples began to fold at harvest in (time, client, position)
// order, and moved back (with `layers 9007`) when they began to add
// straight into the series in dispatch order.  Keep the generator knobs
// in sync with src/testing/fingerprint_corpus.cpp (16 seeds from 9000,
// duration 6).
void check_parity(const std::string& mode, tt::GeneratorOptions generator) {
  const std::vector<GoldenEntry> goldens =
      load_goldens(TACTIC_GOLDEN_FINGERPRINTS, mode);
  const std::vector<GoldenEntry> verdicts =
      load_goldens(TACTIC_GOLDEN_VERDICTS, mode);
  ASSERT_GE(goldens.size(), 16u);
  ASSERT_EQ(verdicts.size(), goldens.size());
  generator.duration = event::from_seconds(6.0);
  // The fuzzer replays the same scenario, but its `metrics=` digest is
  // not this one: InvariantChecker::finalize drains before it harvests.
  const std::string flags =
      std::string(" --duration 6") +
      (generator.forced_policy == sim::PolicyKind::kTactic
           ? " --policy tactic"
           : "") +
      (generator.with_faults ? " --faults" : "") +
      (generator.with_overload ? " --overload" : "") +
      (generator.with_batch ? " --batch" : "") +
      (generator.with_adaptive ? " --adaptive" : "") +
      (generator.with_skew ? " --skew" : "");
  for (std::size_t i = 0; i < goldens.size(); ++i) {
    const GoldenEntry& golden = goldens[i];
    ASSERT_EQ(verdicts[i].seed, golden.seed);
    sim::Scenario scenario(tt::random_config(golden.seed, generator));
    scenario.run();
    const std::string repro = " (repro: fuzz_scenarios --seed " +
                              std::to_string(golden.seed) + " --repro" +
                              flags + "; its metrics= digest differs)";
    EXPECT_EQ(tt::fingerprint_digest(scenario.harvest()), golden.digest)
        << "behaviour drift at mode=" << mode << " seed=" << golden.seed
        << repro;
    EXPECT_EQ(tt::verdict_digest(scenario), verdicts[i].digest)
        << "verdict drift at mode=" << mode << " seed=" << golden.seed
        << repro;
  }
}

TEST(PipelineParity, PlainCorpusMatchesGoldenFingerprints) {
  check_parity("plain", {});
}

TEST(PipelineParity, FaultsCorpusMatchesGoldenFingerprints) {
  tt::GeneratorOptions generator;
  generator.with_faults = true;
  check_parity("faults", generator);
}

TEST(PipelineParity, FaultsOverloadCorpusMatchesGoldenFingerprints) {
  tt::GeneratorOptions generator;
  generator.with_faults = true;
  generator.with_overload = true;
  check_parity("faults+overload", generator);
}

// The layers no other mode turns on: batching, adaptive control and the
// tag lifecycle, on TACTIC runs with faults and overload.
TEST(PipelineParity, LayersCorpusMatchesGoldenFingerprints) {
  tt::GeneratorOptions generator;
  generator.with_faults = true;
  generator.with_overload = true;
  generator.with_batch = true;
  generator.with_adaptive = true;
  generator.with_skew = true;
  generator.forced_policy = sim::PolicyKind::kTactic;
  check_parity("layers", generator);
}

}  // namespace
}  // namespace tactic::core
