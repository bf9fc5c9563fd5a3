#pragma once
// Per-router tag validation: TACTIC's router-side Protocols 1-4.
//
// TACTIC's enforcement is a fixed sequence of per-hop checks per router
// role: structural pre-check, blacklist, admission control, negative
// verdict cache, Bloom-filter vouching, signature verification.  Each of
// the four role validations at the end of this header runs its
// protocol's checks as straight-line code over one shared
// ValidationContext and returns a Verdict; the policies in
// tactic/tactic_policy.hpp translate that verdict into packet actions.
//
// All mutable per-router validation state (Bloom filter, counters, the
// overload layer's queue/caches, RNG, compute charging) lives in one
// ValidationEngine.  Every simulated compute cost flows through its
// single charge() seam, which also keeps the per-check cost breakdown
// (bf / signature / neg-cache; queue wait is tracked separately).
//
// Invariant: check order, counter updates, RNG draws and charge order
// are observable behaviour — ci/parity.sh holds the fuzz-corpus
// fingerprints, and ci/figures.sh the bench harnesses' output,
// bit-identical across refactors.

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "crypto/pki.hpp"
#include "event/scheduler.hpp"
#include "ndn/fib.hpp"
#include "ndn/packet.hpp"
#include "ndn/policy.hpp"
#include "tactic/adaptive.hpp"
#include "tactic/compute_model.hpp"
#include "tactic/overload.hpp"
#include "tactic/precheck.hpp"
#include "tactic/tag.hpp"
#include "tactic/traitor_tracing.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tactic::core {

/// Network-distributed revocation blacklist — the *eager* revocation
/// extension.  TACTIC's native revocation is tag expiry; the alternative
/// class the paper compares against pushes per-revocation updates to
/// every router.  This models such a push: the provider blacklists the
/// revoked tag's Bloom key and pays one message per router (accounted in
/// `push_messages`); edge routers then reject the tag immediately.
struct RevocationBlacklist {
  std::unordered_set<util::Bytes, util::BytesHash> keys;  // Tag::bloom_key()
  std::uint64_t push_messages = 0;  // router-messages spent on pushes

  /// Blacklists one tag, charging a push to `router_count` routers.
  void blacklist(const Tag& tag, std::size_t router_count);
  bool contains(const Tag& tag) const;
  bool empty() const { return keys.empty(); }
};

/// Scenario-wide knowledge shared by all routers: the PKI, the set of
/// access-controlled name prefixes (both written only at setup), and the
/// eager-revocation blacklist (written by provider pushes at run time).
struct TrustAnchors {
  crypto::Pki pki;
  /// URIs of name prefixes requiring tags (e.g. "/provider3").  Requests
  /// under other prefixes are public and flow untouched.
  std::unordered_set<std::string> protected_prefixes;
  RevocationBlacklist revocations;

  bool is_protected(const ndn::Name& name) const {
    return protected_prefixes.count(name.head_uri()) > 0;
  }
};

/// Batched-validation layer (docs/ARCHITECTURE.md, "Batched validation").
/// Signature verifications for the same provider join a per-provider
/// batch charged one amortized batch-RSA cost at flush time; same-instant
/// Bloom probes coalesce into a SIMD-style multi-probe.  Disabled by
/// default; a disabled layer leaves the router bit-identical to
/// per-operation charging (parity-pinned like the overload layer).
struct BatchConfig {
  bool enabled = false;
  /// Flush a provider's batch as soon as it holds this many pending
  /// verifications.
  std::size_t max_batch = 8;
  /// Longest a pending verification waits for company before the
  /// deadline flush.  0 still defers: the flush runs at the end of the
  /// current scheduler instant (scheduler FIFO), coalescing all
  /// same-provider verifications triggered by the same event — e.g. one
  /// Data packet satisfying several aggregated requests.
  event::Time max_hold = 0;
};

/// Clock-skew tolerance for the expiry pre-check (docs/FAULTS.md,
/// "Clock skew & tag lifecycle").  With imperfect clocks a router's
/// local reading of `now` can run ahead of the issuing provider's,
/// making honestly-live tags look expired.  The tolerance is a soft
/// window past `T_e` inside which an expired-looking tag is still
/// accepted (counted as `skew_soft_accepts`); beyond it the hard bound
/// rejects as before.  Disabled by default; a disabled layer is
/// bit-identical to the strict check (`ci/parity.sh`).  Security
/// envelope: `tolerance` (plus any grace window and the fault model's
/// worst-case skew) must stay well below the tag validity period, or
/// deliberately pre-expired attacker tags could slip inside the window.
struct SkewToleranceConfig {
  bool enabled = false;
  /// Width of the soft window past T_e.  Bounds the revocation-latency
  /// widening: a revoked-by-expiry tag lives at most this much longer.
  event::Time tolerance = 2 * event::kSecond;
};

/// Outage grace mode (docs/FAULTS.md, "Clock skew & tag lifecycle"):
/// while the provider is unreachable — detected as a registration
/// Interest that has gone unanswered for `provider_silence` — the edge
/// keeps vouching *recently*-expired tags for a bounded `window` past
/// T_e, trading a quantified revocation-latency widening for content
/// availability (caches keep serving).  Off by default; bit-identical
/// when disabled.  Grace never applies to tags expired by more than
/// `window`, so long-dead (attacker) tags stay dead.
struct GraceConfig {
  bool enabled = false;
  /// How far past T_e a tag may still be vouched while grace is engaged.
  event::Time window = 30 * event::kSecond;
  /// Unanswered-registration age that flips the edge into grace mode.
  event::Time provider_silence = 5 * event::kSecond;
};

/// Per-router TACTIC configuration.
struct TacticConfig {
  bloom::BloomParams bloom;  // capacity, hashes = 5, max FPP = 1e-4
  /// Enforce access-path authentication at edge routers (the paper's
  /// future-work feature; off in paper-parity runs).
  bool enforce_access_path = false;
  /// Flag-F router cooperation (Protocols 2-3).  Disabling it is the
  /// ablation: every router re-validates for itself.
  bool flag_cooperation = true;
  /// Protocol 1 pre-check before BF/signature work.  Disabling it is the
  /// ablation: structurally invalid tags fall through to signature
  /// verification.
  bool precheck = true;
  /// Fault injection for the invariant harness (`fuzz_scenarios
  /// --inject-expiry-bug`): edge routers skip Protocol 1's tag-expiry
  /// check, the regression the runtime invariants must catch.  Never
  /// enable outside testing.
  bool fault_skip_expiry_precheck = false;
  /// Overload-resilience layer (validation queue, load shedding,
  /// negative-tag cache, per-face policing, staged BF reset).  Disabled
  /// by default; a disabled layer leaves the router bit-identical to the
  /// instantaneous-charging model.  See docs/OVERLOAD.md.
  OverloadConfig overload;
  /// Parallel validation lanes (modeled crypto cores) per router.  1 =
  /// the single-server queue, bit-identical to every pre-lane run; >1
  /// shards validation jobs across lanes by a stable tag-key hash with
  /// deterministic idle-lane stealing (docs/ARCHITECTURE.md, "Event
  /// engine").  Only meaningful while `overload.enabled` is
  /// set — without the overload layer, charging is instantaneous and
  /// there is no queue to shard.
  std::size_t validation_lanes = 1;
  /// Batched validation (amortized batch-RSA + multi-probe BF).  Disabled
  /// by default; see docs/ARCHITECTURE.md, "Batched validation".
  BatchConfig batch;
  /// Adaptive overload control (gradient admission controller + per-face
  /// outlier quarantine) on top of the overload layer.  Disabled by
  /// default and only active while `overload.enabled` is also set; a
  /// disabled layer leaves the router bit-identical to the static
  /// watermarks.  See docs/OVERLOAD.md, "Adaptive control & face
  /// quarantine".
  AdaptiveConfig adaptive;
  /// Clock-skew tolerance window on the expiry pre-check.  Disabled by
  /// default; bit-identical to the strict check when off.
  SkewToleranceConfig skew;
  /// Outage grace mode: vouch recently-expired tags while the provider
  /// is silent.  Disabled by default; bit-identical when off.
  GraceConfig grace;
};

/// Per-router TACTIC operation counters (Fig. 7 / Fig. 8 / Table V).  The
/// fields harvested into sim::RouterOps are the ENGINE_* rows of
/// tactic/router_stats.def; the rest stay per-router.
struct TacticCounters {
#define ENGINE_COUNTER(name, merge, print, layer) std::uint64_t name = 0;
#define ENGINE_TIME(name, seconds, print, layer) event::Time name = 0;
#define ENGINE_HISTOGRAM(name, stem, layer) util::QuantileHistogram name;
#include "tactic/router_stats.def"
  std::uint64_t sig_failures = 0;
  std::uint64_t precheck_rejections = 0;
  std::uint64_t access_path_rejections = 0;
  std::uint64_t no_tag_rejections = 0;
  std::uint64_t blacklist_rejections = 0;  // eager-revocation hits
  std::uint64_t probabilistic_revalidations = 0;
  /// Requests handled since the router's last BF reset, and the completed
  /// inter-reset request counts (Fig. 8's "# requests for a reset").
  std::uint64_t requests_since_reset = 0;
  std::vector<std::uint64_t> requests_per_reset;
};

/// A BF membership result: hit, plus the vouching filter's FPP (the F
/// value Protocol 2 stamps).
struct BloomVouch {
  bool hit = false;
  double fpp = 0.0;
};

/// Which check a compute charge belongs to (the per-check breakdown
/// harvested into sim::RouterOps).
enum class CostKind { kBf, kSignature, kNegCache };

/// All mutable validation state of one router, plus the primitive
/// operations the role validations compose: BF lookup/insert (with
/// staged-reset draining), signature verification (with the negative
/// verdict cache and the batching layer), admission probes, and the
/// single charge() seam through which every ComputeModel cost flows.
class ValidationEngine {
 public:
  ValidationEngine(TacticConfig config, const TrustAnchors& anchors,
                   ComputeModel compute, util::Rng rng);

  const TacticConfig& config() const { return config_; }
  const TrustAnchors& anchors() const { return anchors_; }
  TacticCounters& counters() { return counters_; }
  const TacticCounters& counters() const { return counters_; }
  bloom::BloomFilter& bloom() { return bloom_; }
  const bloom::BloomFilter& bloom() const { return bloom_; }
  const ValidationLanes& validation_lanes() const { return lanes_; }
  const NegativeTagCache& neg_cache() const { return neg_cache_; }
  ComputeModel& compute_model() { return compute_; }
  util::Rng& rng() { return rng_; }
  TraitorTracer* tracer() const { return tracer_; }
  void set_tracer(TraitorTracer* tracer) { tracer_ = tracer; }

  /// Whether a staged-reset drain window is open at `now`.
  bool draining_active(event::Time now) const {
    return draining_.has_value() && now < draining_until_;
  }

  /// Charges one operation: instantaneous without the overload layer,
  /// through the validation lanes with it (the op waits behind pending
  /// jobs on its lane's crypto server).  `kind` files the cost under the
  /// per-check breakdown; `lane` is the job's home lane (lane_for(tag);
  /// the three-argument form charges lane 0, which with the default
  /// single lane is the pre-lane behavior exactly).
  void charge(event::Time now, event::Time cost, event::Time& compute,
              CostKind kind) {
    charge(now, cost, compute, kind, 0);
  }
  void charge(event::Time now, event::Time cost, event::Time& compute,
              CostKind kind, std::size_t lane);

  /// Home lane for `tag`'s validation work: a stable byte-hash (FNV-1a)
  /// of the tag key modulo the lane count.  Interned-name IDs are
  /// deliberately not used: the NameTable is process-global, so their
  /// values depend on what the process interned earlier (for example an
  /// earlier Scenario in the same test binary).
  std::size_t lane_for(const Tag& tag) const;
  /// BF membership test with charging & counting.  With a staged reset
  /// in its drain window, a miss in the active filter also consults the
  /// draining one (a second, charged lookup).
  BloomVouch bloom_lookup(const Tag& tag, event::Time now,
                          event::Time& compute);
  /// BF insertion with charging, counting, and saturation-triggered reset
  /// (records the inter-reset request count; staged when configured).
  void bloom_insert(const Tag& tag, event::Time now, event::Time& compute);
  /// Outcome of verify_signature(): the verdict is known immediately
  /// (the crypto result does not depend on when the cost is charged).
  /// `deferred` is set only while batching_active() and the signature
  /// was actually checked: it fires when the provider's batch flushes
  /// and carries the amortized completion delay.
  struct Verification {
    bool ok = false;
    std::shared_ptr<ndn::DeferredVerdict> deferred;
  };
  /// Signature verification with charging & counting.  With the overload
  /// layer on, consults the negative-tag cache first (a known-bad tag
  /// fails for the cost of a probe) and records fresh failures.  With
  /// batching off the signature cost is charged into `compute` at once;
  /// with it on, the cost draw joins the tag provider's pending batch and
  /// `compute` only accumulates the negative-cache probe.
  Verification verify_signature(const Tag& tag, event::Time now,
                                event::Time& compute);
  /// True when the negative-tag cache condemns `tag` (charged probe).
  bool neg_cache_rejects(const Tag& tag, event::Time now,
                         event::Time& compute);

  // --- batched validation (docs/ARCHITECTURE.md, "Batched validation") ---
  /// Binds the owning node's scheduler, which the batcher needs for
  /// deadline flushes.  Idempotent; the policy hooks call it on every
  /// packet (a pointer store).
  void bind_scheduler(event::Scheduler* scheduler) { scheduler_ = scheduler; }
  /// Whether signature batching is live (configured on and a scheduler
  /// is bound).
  bool batching_active() const {
    return config_.batch.enabled && scheduler_ != nullptr;
  }
  /// Joins the per-provider signature batch with a recorded per-item
  /// cost draw; never returns null while batching_active().  Flushes
  /// synchronously on the size cap, or immediately when `queue_idle` —
  /// the overload layer's validation queue had no pending work when this
  /// item arrived (sampled *before* the item's own neg-cache probe was
  /// charged): holding buys no amortization partner faster than the
  /// deadline, and an idle crypto server makes waiting pure added
  /// latency under light load.
  std::shared_ptr<ndn::DeferredVerdict> sig_batch_join(const Tag& tag,
                                                       event::Time now,
                                                       event::Time item_cost,
                                                       bool queue_idle);
  /// Flushes every pending batch (tests / orderly shutdown).
  void flush_all_batches();
  /// Pending signature verifications for `tag`'s provider.
  std::size_t sig_batch_depth(const Tag& tag) const;
  /// Records a failed-verification verdict for `tag`.
  void remember_invalid(const Tag& tag, event::Time now);
  /// Pending validation jobs at `now`, summed over every lane — the
  /// admission-control signal (watermarks bound the router, not one core).
  std::size_t queue_depth(event::Time now) { return lanes_.depth(now); }

  // --- adaptive overload control (docs/OVERLOAD.md, "Adaptive control
  // & face quarantine"; inert unless overload AND adaptive are enabled) ---
  /// Whether the adaptive layer is live (both layers configured on).
  bool adaptive_active() const { return adaptive_ != nullptr; }
  /// Hard admission limit of the queue-capacity check: the gradient
  /// controller's concurrency limit when adaptive, else the static
  /// queue_capacity fallback.
  std::size_t effective_queue_capacity() const {
    return adaptive_ ? adaptive_->controller.concurrency_limit()
                     : config_.overload.queue_capacity;
  }
  /// Unvouched shed watermark: the controller's derived watermark
  /// (tightened to min_limit during a minRTT probe window) when
  /// adaptive, else the static shed_watermark fallback.
  std::size_t effective_shed_watermark() const {
    return adaptive_ ? adaptive_->controller.shed_watermark()
                     : config_.overload.shed_watermark;
  }
  /// Gradient-controller gauges for harvesting; null when inactive.
  const GradientController* gradient_controller() const {
    return adaptive_ ? &adaptive_->controller : nullptr;
  }
  const FaceOutlierDetector* outlier_detector() const {
    return adaptive_ ? &adaptive_->outliers : nullptr;
  }
  /// Quarantine gate for one downstream face; false sheds the Interest
  /// (counted in quarantine_sheds).  Always true while inactive.
  bool quarantine_admits(ndn::FaceId face, event::Time now);
  /// Feeds one per-face validation outcome into the outlier detector.
  /// Covers deferred batch verdicts too: the crypto outcome is known at
  /// verification time even when its delivery waits for the flush.
  void observe_face_verdict(ndn::FaceId face, bool good, event::Time now);
  /// Per-face token-bucket decision for one unvouched Interest.
  bool police_unvouched(ndn::FaceId face, event::Time now);
  /// Counts a tagged request against the inter-reset window.
  void count_request();

  /// Crash recovery: wipes everything volatile — the validated-tag BF
  /// (without counting a Table V saturation reset), the inter-reset
  /// request window, and the overload layer's queue/caches/buckets.
  void wipe_volatile();

 private:
  TacticConfig config_;
  const TrustAnchors& anchors_;
  ComputeModel compute_;
  util::Rng rng_;
  bloom::BloomFilter bloom_;
  TacticCounters counters_;
  TraitorTracer* tracer_ = nullptr;
  // Overload-resilience state (inert while config_.overload.enabled is
  // false; all volatile, wiped by wipe_volatile).
  ValidationLanes lanes_;
  NegativeTagCache neg_cache_;
  std::unordered_map<ndn::FaceId, TokenBucket> buckets_;
  /// Staged reset: the saturated filter kept readable until
  /// `draining_until_` while the active filter refills.
  std::optional<bloom::BloomFilter> draining_;
  event::Time draining_until_ = 0;

  // --- batched validation (inert while config_.batch.enabled is false;
  // volatile, wiped by wipe_volatile) ---
  enum class FlushReason { kSizeCap, kDeadline, kQueueDrain };
  struct SigBatch {
    std::vector<std::shared_ptr<ndn::DeferredVerdict>> pending;
    /// The first joined item's cost draw; the flush charges it scaled by
    /// ComputeModel::sig_batch_factor(n) — no flush-time draw, so the
    /// RNG stream is identical to unbatched charging.
    event::Time first_cost = 0;
    /// Sum of all recorded per-item draws (amortization accounting).
    event::Time unbatched_cost = 0;
    /// Home lane of the first joined item; the flush charges there.
    std::size_t lane = 0;
    /// Set from `batch_generation_` when the batch opens; its deadline
    /// event flushes only the batch of the same generation.
    std::uint64_t generation = 0;
  };
  void sig_batch_flush(const std::string& provider, FlushReason reason);

  std::unordered_map<std::string, SigBatch> sig_batches_;
  std::uint64_t batch_generation_ = 0;
  event::Scheduler* scheduler_ = nullptr;

  // --- adaptive overload control (null unless overload AND adaptive are
  // enabled at construction; its RNG stream is forked only then, so a
  // disabled layer consumes zero draws) ---
  struct AdaptiveState {
    AdaptiveState(const AdaptiveConfig& config, std::size_t initial_limit,
                  util::Rng rng_in)
        : rng(rng_in),
          controller(config, initial_limit, &rng),
          outliers(config, &rng) {}
    util::Rng rng;
    GradientController controller;
    FaceOutlierDetector outliers;
  };
  void sync_adaptive_counters();
  std::unique_ptr<AdaptiveState> adaptive_;

  /// Same-instant BF multi-probe coalescing: timestamp of the last
  /// charged lookup probe (valid when bf_probe_seen_).
  event::Time last_bf_probe_at_ = 0;
  bool bf_probe_seen_ = false;
};

/// What a role validation decided about the request.
struct Verdict {
  enum class Kind : std::uint8_t {
    kContinue,  // every check passed without vouching (edge F = 0)
    kVouch,     // accepted (BF hit, trusted F, or verified); stop
    kReject,    // invalid; drop or NACK per `reason`/`silent`
    kShed,      // overloaded; refuse with a back-off NACK
  };
  Kind kind = Kind::kContinue;
  /// For kVouch: the F value vouched with (a filter's FPP, the trusted
  /// incoming F, or 0.0 after a full verification).
  double flag_f = 0.0;
  ndn::NackReason reason = ndn::NackReason::kNone;
  /// For kReject: drop without sending/attaching a NACK (the paper's
  /// silent "drops the request").
  bool silent = false;

  static Verdict next() { return {}; }
  static Verdict vouch(double f) {
    return {Kind::kVouch, f, ndn::NackReason::kNone, false};
  }
  static Verdict reject(ndn::NackReason why, bool silently = false) {
    return {Kind::kReject, 0.0, why, silently};
  }
  static Verdict shed(ndn::NackReason why) {
    return {Kind::kShed, 0.0, why, false};
  }
};

/// Everything one validation run sees: the engine (state + primitives),
/// the tag under test, the request/content views the checks compare it
/// against, and the run's outputs (compute consumed, flag to stamp).
struct ValidationContext {
  ValidationContext(ValidationEngine& engine_, const Tag& tag_,
                    event::Time now_)
      : engine(engine_), tag(tag_), now(now_), local_now(now_) {}

  ValidationEngine& engine;
  const Tag& tag;
  /// True (scheduler) time — event scheduling, queueing, rate windows.
  event::Time now;
  /// This node's local-clock reading of `now` (== `now` unless the
  /// clock-skew fault model installed a skewed clock).  All timestamp
  /// *interpretation* — the expiry pre-check — uses this.
  event::Time local_now;
  /// Whether this node's clock differs from true time; gates the
  /// skew_false_* ground-truth accounting.
  bool clock_skewed = false;
  /// Whether the adapter observed the provider as unreachable (grace
  /// mode input; see GraceConfig).
  bool grace_active = false;

  // --- request views (set by the policy that runs the validation) ---
  ndn::FaceId in_face = ndn::kInvalidFace;  // edge Interest admission
  const ndn::Name* interest_name = nullptr;  // edge pre-check
  const ndn::Data* content = nullptr;        // content pre-check
  std::uint64_t access_path = 0;  // AP accumulated in the Interest
  double flag_f_in = 0.0;         // F stamped by the downstream edge

  // --- run state / outputs ---
  /// Set when the F-probability coin elected a re-validation: the request
  /// is vouched-class (not shed as suspect on cache hits) but must pass
  /// signature verification.
  bool revalidating = false;
  /// The F value to write back (Interest stamp / content echo).  Unset
  /// means the original code path left the packet's F untouched.
  std::optional<double> flag_f_out;
  /// Compute consumed by this run (the decision's latency charge).
  event::Time compute = 0;
  /// Set when the signature verification joined a batch: the policy must
  /// hand this to the forwarder (through its decision) so the verdict
  /// packet leaves at batch-flush time instead of after `compute`.  Null
  /// on the synchronous path.
  std::shared_ptr<ndn::DeferredVerdict> deferred;
};

// ---------------------------------------------------------------------------
// Role validations (paper Protocols 1-4)
//
// Each function runs one router role's checks in protocol order over the
// engine's primitives and returns the first terminal verdict, or
// Verdict::next() when every check passed without vouching.  The order
// of checks, RNG draws and charges is part of the observable behaviour
// (docs/ARCHITECTURE.md, "Role validations").
// ---------------------------------------------------------------------------

/// Edge Interest path (Protocol 2 "On Request" + Protocol 1 edge half):
/// pre-check (silent drop) -> blacklist -> access path -> negative cache
/// -> queue capacity -> BF stamp -> policer -> watermark.  Needs
/// `interest_name`, `access_path` and `in_face`.
Verdict validate_edge_interest(ValidationContext& ctx);
/// Edge aggregated-Data path (Protocol 2 lines 22-23): content pre-check
/// (silent drop) -> BF lookup -> watermark -> verify (a forgery drops
/// silently) -> insert.  Needs `content`.
Verdict validate_edge_aggregate(ValidationContext& ctx);
/// Content-router cache-hit path (Protocol 3 + Protocol 1 content half):
/// content pre-check (precise NACK) -> F coin when F > 0, else local BF
/// -> watermark (skipped for re-validations) -> verify -> insert and
/// stamp F = 0 (not after a re-validation).  Needs `content` and
/// `flag_f_in`.
Verdict validate_content_cache_hit(ValidationContext& ctx);
/// Intermediate-router aggregated-Data path (Protocol 4 lines 11-26): F
/// coin (only when F > 0) -> content pre-check (generic NACK) ->
/// watermark -> verify -> insert and stamp F = 0.  Needs `content` and
/// `flag_f_in`.
Verdict validate_core_aggregate(ValidationContext& ctx);

}  // namespace tactic::core
