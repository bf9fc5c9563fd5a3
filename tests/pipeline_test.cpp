// Stage-level tests for the composable validation pipeline
// (tactic/pipeline.hpp): each ValidationStage's verdicts, counters and
// compute charges in isolation, the per-stage compute breakdown
// invariant, and the fingerprint and verdict parity check against the
// goldens over the fixed-seed fuzz corpus.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
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

/// One engine + one signed tag, with the provider key in the PKI.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : keys_(test_keypair()) {
    anchors_.pki.add_key("/provider0/KEY/1", keys_.public_key);
    anchors_.protected_prefixes.insert("/provider0");
    tag_ = issue_tag(basic_fields(), keys_.private_key);
    name_ = ndn::Name("/provider0/videos/1");
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

  crypto::RsaKeyPair keys_;
  TrustAnchors anchors_;
  TacticConfig config_;
  TagPtr tag_;
  ndn::Name name_;
};

// ---------------------------------------------------------------------------
// PrecheckStage
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, PrecheckInterestPassesValidTag) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *tag_, kSecond);
  ctx.interest_name = &name_;
  PrecheckStage stage(PrecheckStage::Check::kInterest,
                      PrecheckStage::FailAction::kSilentDrop);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kContinue);
  EXPECT_EQ(engine.counters().precheck_rejections, 0u);
  EXPECT_EQ(ctx.compute, 0);  // Protocol 1 is the un-charged cheap check
}

TEST_F(PipelineTest, PrecheckInterestRejectsExpiredTagSilently) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *tag_, 11 * kSecond);  // past expiry
  ctx.interest_name = &name_;
  PrecheckStage stage(PrecheckStage::Check::kInterest,
                      PrecheckStage::FailAction::kSilentDrop);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_TRUE(verdict.silent);
  EXPECT_EQ(verdict.reason, to_nack_reason(PrecheckResult::kExpired));
  EXPECT_EQ(engine.counters().precheck_rejections, 1u);
}

TEST_F(PipelineTest, PrecheckInterestHonoursInjectedExpiryBug) {
  config_.fault_skip_expiry_precheck = true;
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *tag_, 11 * kSecond);
  ctx.interest_name = &name_;
  PrecheckStage stage(PrecheckStage::Check::kInterest,
                      PrecheckStage::FailAction::kSilentDrop);
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);
  EXPECT_EQ(engine.counters().precheck_rejections, 0u);
}

TEST_F(PipelineTest, PrecheckDisabledPassesEverything) {
  config_.precheck = false;
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *tag_, 11 * kSecond);  // would be expired
  ctx.interest_name = &name_;
  PrecheckStage stage(PrecheckStage::Check::kInterest,
                      PrecheckStage::FailAction::kSilentDrop);
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);
}

TEST_F(PipelineTest, PrecheckContentPassesPublicUnconditionally) {
  ValidationEngine engine = make_engine();
  ndn::Data data;  // access_level = kPublicAccessLevel
  ValidationContext ctx(engine, *tag_, kSecond);
  ctx.content = &data;
  PrecheckStage stage(PrecheckStage::Check::kContent,
                      PrecheckStage::FailAction::kNackPrecheckReason);
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);
}

TEST_F(PipelineTest, PrecheckContentFailActionSelectsNackReason) {
  ValidationEngine engine = make_engine();
  ndn::Data data = protected_data();
  data.access_level = 9;  // above the tag's AL_u = 2
  ValidationContext ctx(engine, *tag_, kSecond);
  ctx.content = &data;

  PrecheckStage precise(PrecheckStage::Check::kContent,
                        PrecheckStage::FailAction::kNackPrecheckReason);
  Verdict verdict = precise.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_FALSE(verdict.silent);
  EXPECT_EQ(verdict.reason,
            to_nack_reason(PrecheckResult::kAccessLevelTooLow));

  PrecheckStage generic(PrecheckStage::Check::kContent,
                        PrecheckStage::FailAction::kNackInvalidSignature);
  verdict = generic.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kInvalidSignature);
  EXPECT_EQ(engine.counters().precheck_rejections, 2u);
}

// ---------------------------------------------------------------------------
// BlacklistStage / AccessPathStage
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, BlacklistPassesWhenEmptyAndRejectsWhenListed) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *tag_, kSecond);
  BlacklistStage stage;
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);

  anchors_.revocations.blacklist(*tag_, 3);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kExpiredTag);
  EXPECT_EQ(engine.counters().blacklist_rejections, 1u);
  EXPECT_EQ(anchors_.revocations.push_messages, 3u);
}

TEST_F(PipelineTest, AccessPathEnforcementRejectsMismatch) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *tag_, kSecond);
  ctx.access_path = 0xDEADBEEF;  // matches the tag
  AccessPathStage stage;
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);  // not enforced

  config_.enforce_access_path = true;
  ValidationEngine strict = make_engine();
  ValidationContext match(strict, *tag_, kSecond);
  match.access_path = 0xDEADBEEF;
  EXPECT_EQ(stage.run(match).kind, Verdict::Kind::kContinue);

  ValidationContext mismatch(strict, *tag_, kSecond);
  mismatch.access_path = 0x1234;
  const Verdict verdict = stage.run(mismatch);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kAccessPathMismatch);
  EXPECT_EQ(strict.counters().access_path_rejections, 1u);
}

// ---------------------------------------------------------------------------
// NegativeCacheStage
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, NegativeCacheInertWhileOverloadDisabled) {
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  ValidationContext ctx(engine, *tag_, kSecond);
  NegativeCacheStage stage;
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);
  EXPECT_EQ(ctx.compute, 0);  // no probe, no charge
}

TEST_F(PipelineTest, NegativeCacheRejectsRememberedTag) {
  config_.overload.enabled = true;
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  NegativeCacheStage stage;

  ValidationContext miss(engine, *tag_, kSecond);
  EXPECT_EQ(stage.run(miss).kind, Verdict::Kind::kContinue);
  EXPECT_GT(miss.compute, 0);  // the probe is charged even on a miss
  EXPECT_EQ(engine.counters().compute_neg, engine.counters().compute_charged);

  engine.remember_invalid(*tag_, kSecond);
  ValidationContext hit(engine, *tag_, kSecond);
  const Verdict verdict = stage.run(hit);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kInvalidSignature);
  EXPECT_EQ(engine.counters().neg_cache_hits, 1u);
  EXPECT_EQ(engine.counters().neg_cache_insertions, 1u);
}

// ---------------------------------------------------------------------------
// AdmissionStage
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, AdmissionInertWhileOverloadDisabled) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *tag_, kSecond);
  AdmissionStage stage(AdmissionStage::Gate::kQueueCapacity);
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);
}

TEST_F(PipelineTest, AdmissionShedsAtQueueCapacity) {
  config_.overload.enabled = true;
  config_.overload.queue_capacity = 1;
  ValidationEngine engine = make_engine();
  event::Time compute = 0;
  engine.charge(0, kSecond, compute, CostKind::kSignature);  // backlog of 1

  ValidationContext ctx(engine, *tag_, 0);
  AdmissionStage stage(AdmissionStage::Gate::kQueueCapacity);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kShed);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kRouterOverloaded);
  EXPECT_EQ(engine.counters().sheds_queue_full, 1u);
}

TEST_F(PipelineTest, AdmissionWatermarkShedsUnvouchedButNotRevalidating) {
  config_.overload.enabled = true;
  config_.overload.shed_watermark = 1;
  ValidationEngine engine = make_engine();
  event::Time compute = 0;
  engine.charge(0, kSecond, compute, CostKind::kSignature);

  AdmissionStage content(AdmissionStage::Gate::kWatermark,
                         /*shed_revalidating=*/false);
  ValidationContext revalidating(engine, *tag_, 0);
  revalidating.revalidating = true;
  EXPECT_EQ(content.run(revalidating).kind, Verdict::Kind::kContinue);

  ValidationContext unvouched(engine, *tag_, 0);
  EXPECT_EQ(content.run(unvouched).kind, Verdict::Kind::kShed);
  EXPECT_EQ(engine.counters().sheds_unvouched, 1u);

  AdmissionStage core(AdmissionStage::Gate::kWatermark);
  ValidationContext shed_anyway(engine, *tag_, 0);
  shed_anyway.revalidating = true;
  EXPECT_EQ(core.run(shed_anyway).kind, Verdict::Kind::kShed);
  EXPECT_EQ(engine.counters().sheds_unvouched, 2u);
}

TEST_F(PipelineTest, AdmissionPolicerShedsPastBurst) {
  config_.overload.enabled = true;
  config_.overload.policer_rate = 1.0;
  config_.overload.policer_burst = 1.0;
  config_.overload.shed_watermark = 100;  // watermark never trips here
  ValidationEngine engine = make_engine();
  AdmissionStage stage(AdmissionStage::Gate::kUnvouchedInterest);

  ValidationContext first(engine, *tag_, 0);
  first.in_face = 4;
  EXPECT_EQ(stage.run(first).kind, Verdict::Kind::kContinue);

  ValidationContext second(engine, *tag_, 0);
  second.in_face = 4;  // same face, bucket drained
  const Verdict verdict = stage.run(second);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kShed);
  EXPECT_EQ(engine.counters().policer_sheds, 1u);
}

// ---------------------------------------------------------------------------
// BloomVouchStage
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, BloomVouchStampMissStampsZero) {
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  ValidationContext ctx(engine, *tag_, kSecond);
  BloomVouchStage stage(BloomVouchStage::Mode::kStampInterest);
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);
  ASSERT_TRUE(ctx.flag_f_out.has_value());
  EXPECT_EQ(*ctx.flag_f_out, 0.0);
  EXPECT_EQ(engine.counters().bf_lookups, 1u);
  EXPECT_GT(engine.counters().compute_bf, 0);
}

TEST_F(PipelineTest, BloomVouchStampHitVouchesWithFilterFpp) {
  ValidationEngine engine = make_engine();
  event::Time compute = 0;
  engine.bloom_insert(*tag_, kSecond, compute);
  ValidationContext ctx(engine, *tag_, kSecond);
  BloomVouchStage stage(BloomVouchStage::Mode::kStampInterest);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(verdict.flag_f, engine.bloom().current_fpp());
  EXPECT_GT(verdict.flag_f, 0.0);
}

TEST_F(PipelineTest, BloomVouchStampSkipsLookupWithoutCooperation) {
  config_.flag_cooperation = false;
  ValidationEngine engine = make_engine();
  event::Time compute = 0;
  engine.bloom_insert(*tag_, kSecond, compute);  // would hit
  ValidationContext ctx(engine, *tag_, kSecond);
  BloomVouchStage stage(BloomVouchStage::Mode::kStampInterest);
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);
  EXPECT_EQ(*ctx.flag_f_out, 0.0);
  EXPECT_EQ(engine.counters().bf_lookups, 0u);  // ablation: no lookup
}

TEST_F(PipelineTest, BloomVouchFlagAwareZeroFlagConsultsLocalFilter) {
  ValidationEngine engine = make_engine();
  BloomVouchStage stage(BloomVouchStage::Mode::kFlagAware);

  ValidationContext miss(engine, *tag_, kSecond);
  EXPECT_EQ(stage.run(miss).kind, Verdict::Kind::kContinue);
  EXPECT_FALSE(miss.flag_f_out.has_value());  // F untouched on fall-through

  event::Time compute = 0;
  engine.bloom_insert(*tag_, kSecond, compute);
  ValidationContext hit(engine, *tag_, kSecond);
  const Verdict verdict = stage.run(hit);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(verdict.flag_f, 0.0);
  EXPECT_EQ(*hit.flag_f_out, 0.0);
}

TEST_F(PipelineTest, BloomVouchFlagAwareCoinElectsRevalidation) {
  ValidationEngine engine = make_engine();
  BloomVouchStage stage(BloomVouchStage::Mode::kFlagAware);
  ValidationContext ctx(engine, *tag_, kSecond);
  ctx.flag_f_in = 1.0;  // the coin always elects re-validation
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);
  EXPECT_TRUE(ctx.revalidating);
  EXPECT_EQ(*ctx.flag_f_out, 1.0);  // F echoed regardless of the coin
  EXPECT_EQ(engine.counters().probabilistic_revalidations, 1u);
  EXPECT_EQ(engine.counters().bf_lookups, 0u);  // no local lookup with F>0
}

TEST_F(PipelineTest, BloomVouchCoinOnlyTrustsEdgeOnTails) {
  ValidationEngine engine = make_engine();
  BloomVouchStage stage(BloomVouchStage::Mode::kCoinOnly);
  ValidationContext ctx(engine, *tag_, kSecond);
  ctx.flag_f_in = 1e-300;  // tails, for any realisable draw
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(verdict.flag_f, 1e-300);
  EXPECT_EQ(*ctx.flag_f_out, 1e-300);
  EXPECT_FALSE(ctx.revalidating);
  EXPECT_EQ(engine.counters().probabilistic_revalidations, 0u);
}

TEST_F(PipelineTest, BloomVouchCoinOnlyHeadsFallsThroughUnstamped) {
  ValidationEngine engine = make_engine();
  BloomVouchStage stage(BloomVouchStage::Mode::kCoinOnly);
  ValidationContext ctx(engine, *tag_, kSecond);
  ctx.flag_f_in = 1.0;
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kContinue);
  EXPECT_TRUE(ctx.revalidating);
  EXPECT_FALSE(ctx.flag_f_out.has_value());
  EXPECT_EQ(engine.counters().probabilistic_revalidations, 1u);
}

// ---------------------------------------------------------------------------
// SignatureVerifyStage
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, SignatureVerifyEdgeAggregateInsertsOnSuccess) {
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  ValidationContext ctx(engine, *tag_, kSecond);
  SignatureVerifyStage stage(SignatureVerifyStage::Mode::kEdgeAggregate);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(engine.counters().sig_verifications, 1u);
  EXPECT_EQ(engine.counters().bf_insertions, 1u);
  EXPECT_GT(engine.counters().compute_sig, 0);
  EXPECT_FALSE(ctx.flag_f_out.has_value());  // edge aggregates keep F as-is
}

TEST_F(PipelineTest, SignatureVerifyEdgeAggregateDropsForgerySilently) {
  const TagPtr forged =
      forge_tag(basic_fields(), test_keypair(2).private_key);
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *forged, kSecond);
  SignatureVerifyStage stage(SignatureVerifyStage::Mode::kEdgeAggregate);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_TRUE(verdict.silent);  // "drop otherwise"
  EXPECT_EQ(engine.counters().sig_failures, 1u);
  EXPECT_EQ(engine.counters().bf_insertions, 0u);
}

TEST_F(PipelineTest, SignatureVerifyCacheHitFreshInsertsAndStampsZero) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *tag_, kSecond);
  SignatureVerifyStage stage(SignatureVerifyStage::Mode::kCacheHit);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(*ctx.flag_f_out, 0.0);
  EXPECT_EQ(engine.counters().bf_insertions, 1u);
}

TEST_F(PipelineTest, SignatureVerifyCacheHitRevalidationDoesNotInsert) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *tag_, kSecond);
  ctx.flag_f_in = 0.25;
  ctx.revalidating = true;
  SignatureVerifyStage stage(SignatureVerifyStage::Mode::kCacheHit);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(verdict.flag_f, 0.25);  // the echoed F stands
  EXPECT_EQ(engine.counters().bf_insertions, 0u);
}

TEST_F(PipelineTest, SignatureVerifyCoreAggregateInsertsOnRevalidation) {
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *tag_, kSecond);
  ctx.revalidating = true;
  SignatureVerifyStage stage(SignatureVerifyStage::Mode::kCoreAggregate);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kVouch);
  EXPECT_EQ(*ctx.flag_f_out, 0.0);  // Protocol 4 re-stamps F=0
  EXPECT_EQ(engine.counters().bf_insertions, 1u);
}

TEST_F(PipelineTest, SignatureVerifyFailureNacksInvalidSignature) {
  const TagPtr forged =
      forge_tag(basic_fields(), test_keypair(2).private_key);
  ValidationEngine engine = make_engine();
  ValidationContext ctx(engine, *forged, kSecond);
  SignatureVerifyStage stage(SignatureVerifyStage::Mode::kCacheHit);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_FALSE(verdict.silent);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kInvalidSignature);
}

TEST_F(PipelineTest, SignatureVerifyConsultsNegativeCacheUnderOverload) {
  config_.overload.enabled = true;
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  engine.remember_invalid(*tag_, kSecond);
  ValidationContext ctx(engine, *tag_, kSecond);
  SignatureVerifyStage stage(SignatureVerifyStage::Mode::kCacheHit);
  const Verdict verdict = stage.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(engine.counters().neg_cache_hits, 1u);
  EXPECT_EQ(engine.counters().sig_verifications, 0u);  // probe short-circuits
  EXPECT_GT(engine.counters().compute_neg, 0);
  EXPECT_EQ(engine.counters().compute_sig, 0);
}

TEST_F(PipelineTest, SignatureVerifyChargeOnlyAlwaysSucceeds) {
  TrustAnchors empty;  // no keys: a real verification would fail
  ValidationEngine engine(config_, empty, ComputeModel::deterministic(),
                          util::Rng(7));
  ValidationContext ctx(engine, *tag_, kSecond);
  SignatureVerifyStage stage(SignatureVerifyStage::Mode::kChargeOnly);
  EXPECT_EQ(stage.run(ctx).kind, Verdict::Kind::kVouch);
  EXPECT_EQ(engine.counters().sig_verifications, 1u);
  EXPECT_EQ(engine.counters().sig_failures, 0u);
  EXPECT_GT(engine.counters().compute_sig, 0);
}

// ---------------------------------------------------------------------------
// AuthorizedSetStage
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, AuthorizedSetFiltersOnClientKeyMembership) {
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  AuthorizedSetStage stage;

  ValidationContext unknown(engine, *tag_, kSecond);
  const Verdict rejected = stage.run(unknown);
  EXPECT_EQ(rejected.kind, Verdict::Kind::kReject);
  EXPECT_EQ(rejected.reason, ndn::NackReason::kInvalidSignature);

  engine.bloom().insert(util::to_bytes(tag_->client_key_locator()));
  ValidationContext member(engine, *tag_, kSecond);
  EXPECT_EQ(stage.run(member).kind, Verdict::Kind::kContinue);
  EXPECT_EQ(engine.counters().bf_lookups, 2u);
  EXPECT_GT(engine.counters().compute_bf, 0);
}

// ---------------------------------------------------------------------------
// Pipeline assembly and the charge() seam
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, PipelineStopsAtFirstTerminalVerdict) {
  ValidationEngine engine = make_engine();
  anchors_.revocations.blacklist(*tag_, 1);
  ValidationPipeline pipeline = ValidationPipeline::edge_interest();
  ValidationContext ctx(engine, *tag_, kSecond);
  ctx.interest_name = &name_;
  const Verdict verdict = pipeline.run(ctx);
  EXPECT_EQ(verdict.kind, Verdict::Kind::kReject);
  EXPECT_EQ(verdict.reason, ndn::NackReason::kExpiredTag);
  // The blacklist fired before any BF work: nothing further was charged.
  EXPECT_EQ(engine.counters().bf_lookups, 0u);
  EXPECT_EQ(engine.counters().compute_charged, 0);
}

TEST_F(PipelineTest, RoleAssembliesHaveDocumentedShape) {
  EXPECT_EQ(ValidationPipeline::edge_interest().size(), 7u);
  EXPECT_EQ(ValidationPipeline::edge_aggregate().size(), 4u);
  EXPECT_EQ(ValidationPipeline::content_cache_hit().size(), 4u);
  EXPECT_EQ(ValidationPipeline::core_aggregate().size(), 4u);
  EXPECT_EQ(ValidationPipeline::prob_bf_interest().size(), 2u);
}

TEST_F(PipelineTest, ComputeBreakdownSumsToTotalCharge) {
  config_.overload.enabled = true;
  ValidationEngine engine = make_engine(ComputeModel::deterministic());
  ValidationPipeline pipeline = ValidationPipeline::edge_interest();
  for (int i = 0; i < 50; ++i) {
    ValidationContext ctx(engine, *tag_, i * kSecond);
    ctx.interest_name = &name_;
    pipeline.run(ctx);
  }
  const TacticCounters& c = engine.counters();
  EXPECT_GT(c.compute_charged, 0);
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
