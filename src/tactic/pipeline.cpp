#include "tactic/pipeline.hpp"

namespace tactic::core {

// ---------------------------------------------------------------------------
// Shared scenario state
// ---------------------------------------------------------------------------

void RevocationBlacklist::blacklist(const Tag& tag,
                                    std::size_t router_count) {
  keys.insert(tag.bloom_key());
  push_messages += router_count;
}

bool RevocationBlacklist::contains(const Tag& tag) const {
  return keys.count(tag.bloom_key()) > 0;
}

// ---------------------------------------------------------------------------
// ValidationEngine
// ---------------------------------------------------------------------------

ValidationEngine::ValidationEngine(TacticConfig config,
                                   const TrustAnchors& anchors,
                                   ComputeModel compute, util::Rng rng)
    : config_(std::move(config)),
      anchors_(anchors),
      compute_(compute),
      rng_(rng),
      bloom_(config_.bloom),
      lanes_(config_.validation_lanes),
      neg_cache_(config_.overload.neg_cache_capacity,
                 config_.overload.neg_cache_ttl) {
  if (config_.adaptive.enabled && config_.overload.enabled) {
    // The adaptive layer's dedicated RNG stream is forked only here, so
    // a disabled layer consumes zero draws from the engine's stream and
    // stays bit-identical to the static watermarks (ci/parity.sh).
    adaptive_ = std::make_unique<AdaptiveState>(
        config_.adaptive, config_.overload.queue_capacity, rng_.fork());
  }
}

void ValidationEngine::sync_adaptive_counters() {
  counters_.adaptive_windows = adaptive_->controller.windows_closed();
  counters_.adaptive_minrtt_probes = adaptive_->controller.minrtt_probes();
  counters_.quarantine_ejections = adaptive_->outliers.ejections();
  counters_.quarantine_probes = adaptive_->outliers.probes();
  counters_.quarantine_readmissions = adaptive_->outliers.readmissions();
}

bool ValidationEngine::quarantine_admits(ndn::FaceId face, event::Time now) {
  if (!adaptive_) return true;
  const bool admitted = adaptive_->outliers.admits(face, now);
  if (!admitted) ++counters_.quarantine_sheds;
  sync_adaptive_counters();
  return admitted;
}

void ValidationEngine::observe_face_verdict(ndn::FaceId face, bool good,
                                            event::Time now) {
  if (!adaptive_) return;
  if (good) {
    adaptive_->outliers.on_good_verdict(face, now);
  } else {
    adaptive_->outliers.on_bad_verdict(face, now);
  }
  sync_adaptive_counters();
}

std::size_t ValidationEngine::lane_for(const Tag& tag) const {
  if (lanes_.lanes() <= 1) return 0;
  // FNV-1a over the tag key: the same in every process (unlike interned
  // IDs, whose values depend on what the process interned earlier).
  std::uint64_t hash = 14695981039346656037ull;
  for (const std::uint8_t byte : tag.bloom_key()) {
    hash = (hash ^ byte) * 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % lanes_.lanes());
}

void ValidationEngine::charge(event::Time now, event::Time cost,
                              event::Time& compute, CostKind kind,
                              std::size_t lane) {
  counters_.compute_charged += cost;
  switch (kind) {
    case CostKind::kBf: counters_.compute_bf += cost; break;
    case CostKind::kSignature: counters_.compute_sig += cost; break;
    case CostKind::kNegCache: counters_.compute_neg += cost; break;
  }
  if (!config_.overload.enabled) {
    compute += cost;
    return;
  }
  // Per-lane crypto server: the op waits behind work pending on its lane
  // (with one lane, behind everything on the router).  The packet leaves
  // when its last op completes, so per-packet delay is the max, not the
  // sum, of its ops' delays.
  const event::Time delay = lanes_.admit(lane, now, cost);
  counters_.lane_steals = lanes_.steals();
  counters_.validation_wait += delay - cost;
  counters_.validation_wait_hist.add(event::to_seconds(delay - cost));
  if (adaptive_) {
    // The job's sojourn (wait + service) is the gradient controller's
    // latency signal; pure wait has an uncongested baseline of zero.
    adaptive_->controller.record(now, delay);
    counters_.adaptive_windows = adaptive_->controller.windows_closed();
    counters_.adaptive_minrtt_probes = adaptive_->controller.minrtt_probes();
  }
  if (delay > compute) compute = delay;
}

BloomVouch ValidationEngine::bloom_lookup(const Tag& tag, event::Time now,
                                          event::Time& compute) {
  // With batching on, lookup probes arriving in the same scheduler
  // instant (one queue drain) coalesce into a SIMD-style multi-probe:
  // every probe still consumes its full cost draw (RNG-stream parity
  // with the unbatched path) but probes after the first charge only the
  // marginal fraction.
  const auto probe_cost = [&]() -> event::Time {
    const event::Time drawn = compute_.bf_lookup_cost(rng_);
    if (!config_.batch.enabled) return drawn;
    const bool coalesced = bf_probe_seen_ && last_bf_probe_at_ == now;
    bf_probe_seen_ = true;
    last_bf_probe_at_ = now;
    if (!coalesced) return drawn;
    ++counters_.bf_probes_coalesced;
    return static_cast<event::Time>(static_cast<double>(drawn) *
                                    compute_.bf_probe_marginal());
  };

  const std::size_t lane = lane_for(tag);
  ++counters_.bf_lookups;
  charge(now, probe_cost(), compute, CostKind::kBf, lane);
  if (bloom_.contains(tag.bloom_hashes())) {
    return BloomVouch{true, bloom_.current_fpp()};
  }
  if (draining_) {
    if (now >= draining_until_) {
      draining_.reset();  // grace window over; the old bits finally go
    } else {
      // Staged reset drain: the saturated predecessor still vouches (at
      // its own, higher FPP) for the cost of a second lookup.
      ++counters_.bf_lookups;
      charge(now, probe_cost(), compute, CostKind::kBf, lane);
      if (draining_->contains(tag.bloom_hashes())) {
        ++counters_.draining_hits;
        return BloomVouch{true, draining_->current_fpp()};
      }
    }
  }
  return BloomVouch{};
}

void ValidationEngine::bloom_insert(const Tag& tag, event::Time now,
                                    event::Time& compute) {
  ++counters_.bf_insertions;
  charge(now, compute_.bf_insert_cost(rng_), compute, CostKind::kBf,
         lane_for(tag));
  bloom_.insert(tag.bloom_hashes());
  // "Each router automatically resets its BF when it is saturated (its
  // FPP reaches the maximum FPP)."
  if (bloom_.saturated()) {
    counters_.requests_per_reset.push_back(counters_.requests_since_reset);
    counters_.requests_since_reset = 0;
    if (config_.overload.enabled && config_.overload.staged_bf_reset) {
      // Staged reset: keep the saturated filter readable through a grace
      // window instead of turning every vouched tag into F=0 at once —
      // the hysteresis that suppresses the upstream re-validation storm
      // an instant wipe self-inflicts.
      draining_ = bloom_;
      draining_until_ = now + config_.overload.staged_reset_grace;
      ++counters_.staged_resets;
    }
    bloom_.reset();
  }
}

ValidationEngine::Verification ValidationEngine::verify_signature(
    const Tag& tag, event::Time now, event::Time& compute) {
  const bool batching = batching_active();
  // Idleness is sampled before this item's own neg-cache probe enters
  // the validation queue, so the batch's drain trigger sees the server
  // as the item found it.
  const bool queue_idle =
      batching && config_.overload.enabled && lanes_.depth(now) == 0;
  if (config_.overload.enabled && neg_cache_rejects(tag, now, compute)) {
    return {};  // known-bad tag: same verdict, none of the signature work
  }
  ++counters_.sig_verifications;
  // Batching moves only the charge (to the batch flush): the cost draw,
  // counters and verdict are the same either way.
  const event::Time cost = compute_.sig_verify_cost(rng_);
  if (!batching) {
    charge(now, cost, compute, CostKind::kSignature, lane_for(tag));
  }
  const bool ok = verify_tag_signature(tag, anchors_.pki);
  if (!ok) {
    ++counters_.sig_failures;
    if (config_.overload.enabled) remember_invalid(tag, now);
  }
  if (!batching) return {ok, nullptr};
  return {ok, sig_batch_join(tag, now, cost, queue_idle)};
}

std::shared_ptr<ndn::DeferredVerdict> ValidationEngine::sig_batch_join(
    const Tag& tag, event::Time now, event::Time item_cost,
    bool queue_idle) {
  const std::string& provider = tag.provider_key_locator();
  SigBatch& batch = sig_batches_[provider];
  if (batch.pending.empty()) {
    batch.first_cost = item_cost;
    batch.unbatched_cost = 0;
    batch.lane = lane_for(tag);
    batch.generation = ++batch_generation_;
    // Deadline flush.  max_hold == 0 degenerates to "end of the current
    // instant" (scheduler FIFO runs the flush after all work already
    // queued for now), which is what coalesces the verifications one
    // Data packet triggers across its aggregated PIT records.  A batch
    // flushed early (size cap, queue drain) or wiped by a crash leaves
    // its deadline stale: it finds no batch, or a newer generation.
    scheduler_->schedule_at(
        now + config_.batch.max_hold,
        [this, provider, generation = batch.generation] {
          const auto it = sig_batches_.find(provider);
          if (it == sig_batches_.end() || it->second.generation != generation) {
            return;
          }
          sig_batch_flush(provider, FlushReason::kDeadline);
        });
  }
  auto handle = std::make_shared<ndn::DeferredVerdict>();
  batch.pending.push_back(handle);
  batch.unbatched_cost += item_cost;
  ++counters_.sig_batched_items;
  if (batch.pending.size() > counters_.sig_batch_peak) {
    counters_.sig_batch_peak = batch.pending.size();
  }
  if (batch.pending.size() >= config_.batch.max_batch) {
    sig_batch_flush(provider, FlushReason::kSizeCap);
  } else if (queue_idle) {
    // Idle crypto server: holding the item adds latency without buying
    // amortization partners any sooner than the deadline would — flush
    // as part of this queue drain.
    sig_batch_flush(provider, FlushReason::kQueueDrain);
  }
  return handle;
}

void ValidationEngine::sig_batch_flush(const std::string& provider,
                                       FlushReason reason) {
  auto it = sig_batches_.find(provider);
  if (it == sig_batches_.end() || it->second.pending.empty()) return;
  SigBatch batch = std::move(it->second);
  sig_batches_.erase(it);

  // One amortized batch-RSA charge for the whole batch: the first item's
  // recorded draw scaled by the batch factor.  No flush-time RNG draw —
  // the engine's stream stays identical to unbatched charging, which is
  // what makes verdict equivalence (and batch-off bit-identity) hold.
  const std::size_t n = batch.pending.size();
  const event::Time cost = static_cast<event::Time>(
      static_cast<double>(batch.first_cost) * compute_.sig_batch_factor(n));
  ++counters_.sig_batches_flushed;
  switch (reason) {
    case FlushReason::kSizeCap: ++counters_.sig_batch_flush_size_cap; break;
    case FlushReason::kDeadline: ++counters_.sig_batch_flush_deadline; break;
    case FlushReason::kQueueDrain:
      ++counters_.sig_batch_flush_queue_drain;
      break;
  }
  counters_.sig_batch_unbatched_equiv += batch.unbatched_cost;

  event::Time done = 0;
  charge(scheduler_->now(), cost, done, CostKind::kSignature, batch.lane);
  for (const auto& handle : batch.pending) handle->fire(done);
}

void ValidationEngine::flush_all_batches() {
  std::vector<std::string> providers;
  providers.reserve(sig_batches_.size());
  for (const auto& [provider, batch] : sig_batches_) {
    providers.push_back(provider);
  }
  for (const auto& provider : providers) {
    sig_batch_flush(provider, FlushReason::kDeadline);
  }
}

std::size_t ValidationEngine::sig_batch_depth(const Tag& tag) const {
  const auto it = sig_batches_.find(tag.provider_key_locator());
  return it == sig_batches_.end() ? 0 : it->second.pending.size();
}

bool ValidationEngine::neg_cache_rejects(const Tag& tag, event::Time now,
                                         event::Time& compute) {
  charge(now, compute_.neg_lookup_cost(rng_), compute, CostKind::kNegCache,
         lane_for(tag));
  if (!neg_cache_.contains(tag.bloom_key(), now)) {
    return false;
  }
  ++counters_.neg_cache_hits;
  return true;
}

void ValidationEngine::remember_invalid(const Tag& tag, event::Time now) {
  neg_cache_.insert(tag.bloom_key(), now);
  ++counters_.neg_cache_insertions;
}

bool ValidationEngine::police_unvouched(ndn::FaceId face, event::Time now) {
  const auto [it, inserted] = buckets_.try_emplace(
      face, config_.overload.policer_rate, config_.overload.policer_burst);
  return it->second.try_take(now);
}

void ValidationEngine::count_request() { ++counters_.requests_since_reset; }

void ValidationEngine::wipe_volatile() {
  // Crash-lost state: the validated-tag cache.  wipe() leaves Table V's
  // saturation-reset count untouched, and the inter-reset request window
  // restarts without recording a partial sample.
  bloom_.wipe();
  counters_.requests_since_reset = 0;
  // The overload layer's state is just as volatile: pending validation
  // work dies with the router, and verdict/policing memory is lost.
  lanes_.reset();
  neg_cache_.clear();
  buckets_.clear();
  draining_.reset();
  draining_until_ = 0;
  // Pending validation batches (and their undelivered verdicts) die with
  // the router, their deadlines stale; the forwarder's epoch guard
  // catches any closure already bound.
  for (auto& [provider, batch] : sig_batches_) {
    for (const auto& handle : batch.pending) handle->drop();
    ++counters_.sig_batches_dropped;
  }
  sig_batches_.clear();
  bf_probe_seen_ = false;
  last_bf_probe_at_ = 0;
  if (adaptive_) {
    // The controller's baseline and the quarantine's per-face memory are
    // as volatile as the queue they watch; lifetime counters survive.
    adaptive_->controller.reset();
    adaptive_->outliers.reset();
  }
}

// ---------------------------------------------------------------------------
// Role validations
// ---------------------------------------------------------------------------

namespace {

/// Protocol 1, edge half: provider prefix and expiry against the
/// Interest.  Returns kOk when the tag passes or the pre-check is
/// ablated; a failure is counted in precheck_rejections.
PrecheckResult precheck_interest(ValidationContext& ctx) {
  const TacticConfig& config = ctx.engine.config();
  if (!config.precheck) return PrecheckResult::kOk;

  // The expiry test reads this node's *local* clock — with the
  // clock-skew fault model installed that reading can disagree with
  // true time, and the skew-tolerance / grace windows below decide
  // what an expired-looking tag is still worth.
  PrecheckResult pre =
      edge_precheck(ctx.tag, *ctx.interest_name, ctx.local_now);
  if (pre == PrecheckResult::kExpired && config.fault_skip_expiry_precheck) {
    // Fault injection (`--inject-expiry-bug`): the expiry check is
    // skipped, the regression the runtime invariants must catch.
    pre = PrecheckResult::kOk;
  } else if (pre == PrecheckResult::kExpired) {
    TacticCounters& counters = ctx.engine.counters();
    bool grace_granted = false;
    if (config.skew.enabled &&
        edge_precheck(ctx.tag, *ctx.interest_name, ctx.local_now,
                      config.skew.tolerance) == PrecheckResult::kOk) {
      // Soft window: within `tolerance` past T_e the tag is treated
      // as live (a skewed-ahead clock cannot false-reject it).
      pre = PrecheckResult::kOk;
      ++counters.skew_soft_accepts;
    } else if (ctx.grace_active &&
               ctx.tag.expiry() + config.grace.window >= ctx.local_now) {
      // Outage grace: the provider is silent and the tag expired
      // recently enough — keep vouching it for the bounded window.
      pre = PrecheckResult::kOk;
      ++counters.grace_accepts;
      grace_granted = true;
    }
    // Ground-truth accounting against the true clock (ctx.now): what
    // the skew/tolerance combination cost or saved.  Grace grants are
    // deliberate expired-tag accepts with their own counter.
    const bool truly_live = ctx.tag.expiry() >= ctx.now;
    if (pre == PrecheckResult::kExpired && truly_live) {
      ++counters.skew_false_rejects;
    } else if (pre == PrecheckResult::kOk && !truly_live && !grace_granted) {
      ++counters.skew_false_accepts;
    }
  } else if (pre == PrecheckResult::kOk && ctx.clock_skewed &&
             ctx.tag.expiry() < ctx.now) {
    // A clock running behind: the tag looked live locally but was
    // truly expired — the symmetric false-accept.
    ++ctx.engine.counters().skew_false_accepts;
  }
  if (pre != PrecheckResult::kOk) ++ctx.engine.counters().precheck_rejections;
  return pre;
}

/// Protocol 1, content half: access level and provider key against the
/// content.  Public content passes unconditionally ("allows an r_C^c to
/// return the requested content without tag verification").  A failure
/// is counted; what it does (drop, precise or generic NACK) is the
/// role's business.
PrecheckResult precheck_content(ValidationContext& ctx) {
  if (!ctx.engine.config().precheck ||
      ctx.content->access_level == ndn::kPublicAccessLevel) {
    return PrecheckResult::kOk;
  }
  const PrecheckResult pre = content_precheck(ctx.tag, *ctx.content);
  if (pre != PrecheckResult::kOk) ++ctx.engine.counters().precheck_rejections;
  return pre;
}

/// Overload admission for unvouched work: true (counted) when the
/// validation backlog has reached the shed watermark — the gradient
/// controller's when adaptive, else the static one.
bool shed_at_watermark(ValidationContext& ctx) {
  ValidationEngine& engine = ctx.engine;
  if (!engine.config().overload.enabled ||
      engine.queue_depth(ctx.now) < engine.effective_shed_watermark()) {
    return false;
  }
  ++engine.counters().sheds_unvouched;
  return true;
}

/// The F a content or intermediate router acts on: the downstream edge's
/// stamp, or 0 ("not vouched") with flag-F cooperation ablated.
double trusted_flag(const ValidationContext& ctx) {
  return ctx.engine.config().flag_cooperation ? ctx.flag_f_in : 0.0;
}

/// Protocol 3, lines 11-16 / Protocol 4, lines 12-13: the downstream
/// edge vouched with FPP `flag_f`; re-validate with probability F to
/// bound false-positive leakage.  The one authoritative draw for both
/// protocols, so the two paths cannot drift: true when the coin elects
/// a re-validation, which is counted and marked in the context.
bool revalidation_coin(ValidationContext& ctx, double flag_f) {
  if (!ctx.engine.rng().bernoulli(flag_f)) return false;
  ++ctx.engine.counters().probabilistic_revalidations;
  ctx.revalidating = true;
  return true;
}

/// Full signature verification through the engine's negative-cache-aware,
/// charge-accounted primitive.  While batching, the verdict is known now
/// and the packet's departure waits for the provider batch: the deferred
/// handle goes into the context for the policy to pass on.
bool verify(ValidationContext& ctx) {
  ValidationEngine::Verification verification =
      ctx.engine.verify_signature(ctx.tag, ctx.now, ctx.compute);
  ctx.deferred = std::move(verification.deferred);
  return verification.ok;
}

}  // namespace

Verdict validate_edge_interest(ValidationContext& ctx) {
  ValidationEngine& engine = ctx.engine;
  const TacticConfig& config = engine.config();
  TacticCounters& counters = engine.counters();

  // Protocol 1: the edge "drops the request" on a structural failure.
  const PrecheckResult pre = precheck_interest(ctx);
  if (pre != PrecheckResult::kOk) {
    return Verdict::reject(to_nack_reason(pre), /*silently=*/true);
  }

  // Eager-revocation extension: explicitly blacklisted tags die at the
  // edge no matter how much lifetime they have left.
  const RevocationBlacklist& revocations = engine.anchors().revocations;
  if (!revocations.empty() && revocations.contains(ctx.tag)) {
    ++counters.blacklist_rejections;
    return Verdict::reject(ndn::NackReason::kExpiredTag);
  }

  // Protocol 2, lines 1-2: access-path authentication ("drop the request
  // and send NACK to u").
  if (config.enforce_access_path && ctx.tag.access_path() != ctx.access_path) {
    ++counters.access_path_rejections;
    if (TraitorTracer* tracer = engine.tracer()) {
      // Traitor tracing: the rejected tag names its owner (Pub_u).
      tracer->report(ctx.tag.client_key_locator(), ctx.tag.access_path(),
                     ctx.access_path, ctx.now);
    }
    return Verdict::reject(ndn::NackReason::kAccessPathMismatch);
  }

  if (config.overload.enabled) {
    // A tag already condemned by an upstream verifier dies here for the
    // cost of a cache probe — what bounds an invalid-tag flood to one
    // signature verification per TTL window.
    if (engine.neg_cache_rejects(ctx.tag, ctx.now, ctx.compute)) {
      return Verdict::reject(ndn::NackReason::kInvalidSignature);
    }
    // Hard admission limit: at queue capacity, all tagged traffic is
    // shed with an explicit back-off NACK (clients retry later instead
    // of piling timeouts onto a saturated router).  With the adaptive
    // layer on, the capacity is the gradient controller's concurrency
    // limit instead of the static constant.
    if (engine.queue_depth(ctx.now) >= engine.effective_queue_capacity()) {
      ++counters.sheds_queue_full;
      return Verdict::shed(ndn::NackReason::kRouterOverloaded);
    }
  }

  // Protocol 2, lines 4-9: stamp the cooperation flag F from this BF.
  // With cooperation ablated, F stays 0 and upstream routers always
  // treat the tag as unvouched.
  if (config.flag_cooperation) {
    const BloomVouch vouch = engine.bloom_lookup(ctx.tag, ctx.now, ctx.compute);
    if (vouch.hit) return Verdict::vouch(vouch.fpp);
  }
  ctx.flag_f_out = 0.0;

  // Unvouched (F=0) traffic is the suspect class every flood lands in:
  // police it per incoming face, then shed it past the high watermark —
  // while BF-vouched traffic above kept flowing.
  if (config.overload.enabled && config.overload.policer_rate > 0.0 &&
      !engine.police_unvouched(ctx.in_face, ctx.now)) {
    ++counters.policer_sheds;
    return Verdict::shed(ndn::NackReason::kRouterOverloaded);
  }
  if (shed_at_watermark(ctx)) {
    return Verdict::shed(ndn::NackReason::kRouterOverloaded);
  }
  return Verdict::next();
}

Verdict validate_edge_aggregate(ValidationContext& ctx) {
  const PrecheckResult pre = precheck_content(ctx);
  if (pre != PrecheckResult::kOk) {
    return Verdict::reject(to_nack_reason(pre), /*silently=*/true);
  }
  // Protocol 2, lines 22-23: forward the aggregate if its tag is in the
  // BF, otherwise verify it ("drop otherwise").
  const BloomVouch vouch =
      ctx.engine.bloom_lookup(ctx.tag, ctx.now, ctx.compute);
  if (vouch.hit) return Verdict::vouch(vouch.fpp);
  if (shed_at_watermark(ctx)) {
    return Verdict::shed(ndn::NackReason::kRouterOverloaded);
  }
  if (!verify(ctx)) {
    return Verdict::reject(ndn::NackReason::kNone, /*silently=*/true);
  }
  ctx.engine.bloom_insert(ctx.tag, ctx.now, ctx.compute);
  return Verdict::vouch(0.0);
}

Verdict validate_content_cache_hit(ValidationContext& ctx) {
  // The content router NACKs with the precise pre-check cause.
  const PrecheckResult pre = precheck_content(ctx);
  if (pre != PrecheckResult::kOk) {
    return Verdict::reject(to_nack_reason(pre));
  }

  const double flag_f = trusted_flag(ctx);
  if (flag_f == 0.0) {
    // Protocol 3, lines 1-10: the edge router could not vouch; check our
    // own BF, then fall back to signature verification.
    if (ctx.engine.bloom_lookup(ctx.tag, ctx.now, ctx.compute).hit) {
      ctx.flag_f_out = 0.0;
      return Verdict::vouch(0.0);
    }
  } else {
    // Echo the received F into the content regardless of the coin's
    // outcome, then re-validate with probability F.
    ctx.flag_f_out = ctx.flag_f_in;
    if (!revalidation_coin(ctx, flag_f)) {
      return Verdict::vouch(ctx.flag_f_in);
    }
  }

  // Re-validations are vouched-class traffic: Protocol 3 re-validates
  // regardless of backlog, so only fresh verifications are shed.
  if (!ctx.revalidating && shed_at_watermark(ctx)) {
    return Verdict::shed(ndn::NackReason::kRouterOverloaded);
  }
  if (!verify(ctx)) {
    return Verdict::reject(ndn::NackReason::kInvalidSignature);
  }
  if (ctx.revalidating) {
    // Re-validation of an edge-vouched tag: the verdict stands on its
    // own; the tag is already in the downstream BF.
    return Verdict::vouch(ctx.flag_f_in);
  }
  ctx.engine.bloom_insert(ctx.tag, ctx.now, ctx.compute);
  ctx.flag_f_out = 0.0;
  return Verdict::vouch(0.0);
}

Verdict validate_core_aggregate(ValidationContext& ctx) {
  // Protocol 4, lines 12-13: no local lookup — trust the edge router's
  // vouching except with probability F.
  const double flag_f = trusted_flag(ctx);
  if (flag_f != 0.0 && !revalidation_coin(ctx, flag_f)) {
    ctx.flag_f_out = ctx.flag_f_in;
    return Verdict::vouch(ctx.flag_f_in);
  }
  // The intermediate router NACKs every failure as a generic invalid tag,
  // and sheds re-validations like any unvouched verification.
  if (precheck_content(ctx) != PrecheckResult::kOk) {
    return Verdict::reject(ndn::NackReason::kInvalidSignature);
  }
  if (shed_at_watermark(ctx)) {
    return Verdict::shed(ndn::NackReason::kRouterOverloaded);
  }
  if (!verify(ctx)) {
    return Verdict::reject(ndn::NackReason::kInvalidSignature);
  }
  // Fresh or re-validated, the tag joins this BF and F restarts at 0.
  ctx.engine.bloom_insert(ctx.tag, ctx.now, ctx.compute);
  ctx.flag_f_out = 0.0;
  return Verdict::vouch(0.0);
}

}  // namespace tactic::core
