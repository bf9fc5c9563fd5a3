#include "testing/generator.hpp"

#include <algorithm>
#include <cstdio>

#include "util/rng.hpp"

namespace tactic::testing {

namespace {

sim::PolicyKind sample_policy(util::Rng& rng) {
  constexpr sim::PolicyKind kAll[] = {
      sim::PolicyKind::kTactic,        sim::PolicyKind::kNoAccessControl,
      sim::PolicyKind::kClientSideAc,  sim::PolicyKind::kPerRequestAuth,
      sim::PolicyKind::kProbBf,
  };
  return kAll[rng.uniform(std::size(kAll))];
}

// Samples a bounded-severity fault plan.  Roughly 3 in 4 seeds get a
// non-empty plan; link-loss rates stay below the FaultPlan::severe
// threshold on their own, while stacked crash/flap schedules can push a
// plan over it — the invariant checker then budgets liveness (never
// security) accordingly.
sim::FaultPlan sample_fault_plan(util::Rng& rng, event::Time duration) {
  sim::FaultPlan plan;
  plan.fault_seed = rng();
  if (rng.bernoulli(0.25)) return plan;  // faultless control group

  if (rng.bernoulli(0.8)) {  // lossy wireless edge
    plan.edge_links.loss = 0.002 + 0.08 * rng.uniform_double();
    if (rng.bernoulli(0.5)) {  // Gilbert–Elliott bursts on top
      plan.edge_links.p_enter_burst = 0.005 + 0.02 * rng.uniform_double();
      plan.edge_links.p_exit_burst = 0.2 + 0.4 * rng.uniform_double();
      plan.edge_links.burst_loss = 0.5 + 0.5 * rng.uniform_double();
    }
    if (rng.bernoulli(0.4)) {
      plan.edge_links.corruption = 0.001 + 0.02 * rng.uniform_double();
    }
  }
  if (rng.bernoulli(0.3)) {  // mildly lossy backbone
    plan.core_links.loss = 0.001 + 0.01 * rng.uniform_double();
    if (rng.bernoulli(0.3)) {
      plan.core_links.corruption = 0.001 + 0.005 * rng.uniform_double();
    }
  }

  const std::uint64_t span =
      static_cast<std::uint64_t>(std::max<event::Time>(duration, 1));
  const std::size_t crash_count = rng.uniform(3);  // 0..2
  for (std::size_t i = 0; i < crash_count; ++i) {
    sim::CrashEvent crash;
    crash.target = rng.bernoulli(0.6) ? sim::CrashEvent::Target::kEdgeRouter
                                      : sim::CrashEvent::Target::kCoreRouter;
    crash.index = rng.uniform(8);
    crash.at = static_cast<event::Time>(rng.uniform(span));
    crash.down_for = static_cast<event::Time>(
        100 * event::kMillisecond + rng.uniform(span / 8 + 1));
    plan.crashes.push_back(crash);
  }

  const std::size_t flap_count = rng.uniform(3);  // 0..2
  for (std::size_t i = 0; i < flap_count; ++i) {
    sim::LinkFlap flap;
    flap.where = rng.bernoulli(0.5) ? sim::LinkFlap::Where::kClientAccess
                                    : sim::LinkFlap::Where::kEdgeUplink;
    flap.index = rng.uniform(8);
    flap.down_at = static_cast<event::Time>(rng.uniform(span));
    flap.up_at = flap.down_at + static_cast<event::Time>(
                                    50 * event::kMillisecond +
                                    rng.uniform(span / 8 + 1));
    flap.reconverge = rng.bernoulli(0.5);
    plan.flaps.push_back(flap);
  }
  return plan;
}

// Samples the overload-resilience layer (docs/OVERLOAD.md).  ~85% of
// seeds enable it; half of those also bound the PIT, and half turn the
// attackers into a flood so the shedding paths actually fire.
void sample_overload(util::Rng& rng, sim::ScenarioConfig& config) {
  if (!rng.bernoulli(0.85)) return;  // layer-off control group
  core::OverloadConfig& ov = config.tactic.overload;
  ov.enabled = true;
  ov.queue_capacity = 16 + rng.uniform(112);
  ov.shed_watermark = std::max<std::size_t>(
      8, ov.queue_capacity / 2 + rng.uniform(ov.queue_capacity / 2 + 1));
  ov.neg_cache_capacity = 64 + rng.uniform(960);
  ov.neg_cache_ttl = (1 + rng.uniform(8)) * event::kSecond;
  if (rng.bernoulli(0.5)) {
    ov.policer_rate = 20.0 + 180.0 * rng.uniform_double();
    ov.policer_burst = 10.0 + 30.0 * rng.uniform_double();
  }
  ov.staged_bf_reset = rng.bernoulli(0.5);
  ov.staged_reset_grace = (1 + rng.uniform(4)) * event::kSecond;
  if (rng.bernoulli(0.5)) {
    config.router_pit_capacity = 128 + rng.uniform(896);
  }
  if (rng.bernoulli(0.5)) {  // attacker flood
    config.attacker.think_time_mean = std::max<event::Time>(
        1, config.attacker.think_time_mean / 20);
    config.attacker.window = 4 + rng.uniform(5);
  }
}

// Samples the batched-validation layer (docs/ARCHITECTURE.md, "Batched
// validation").  ~85% of seeds enable it, spanning degenerate (n = 1-ish)
// through deep batches and zero through multi-millisecond hold times.
void sample_batch(util::Rng& rng, sim::ScenarioConfig& config) {
  if (!rng.bernoulli(0.85)) return;  // layer-off control group
  core::BatchConfig& batch = config.tactic.batch;
  batch.enabled = true;
  batch.max_batch = 1 + rng.uniform(16);
  // Half the seeds coalesce only within a scheduler instant (hold 0);
  // the rest hold up to ~5 ms for company.
  batch.max_hold = rng.bernoulli(0.5)
                       ? 0
                       : static_cast<event::Time>(
                             rng.uniform(5 * event::kMillisecond + 1));
  config.compute.set_batch_marginals(0.05 + 0.3 * rng.uniform_double(),
                                     0.1 + 0.5 * rng.uniform_double());
}

// Samples the adaptive overload-control layer (docs/OVERLOAD.md,
// "Adaptive control & face quarantine").  Every knob is drawn
// unconditionally so the draw count per seed is fixed; the layer only
// arms (~85% of seeds) when the overload layer it rides on is enabled.
void sample_adaptive(util::Rng& rng, sim::ScenarioConfig& config) {
  core::AdaptiveConfig& ad = config.tactic.adaptive;
  const bool arm =
      rng.bernoulli(0.85) && config.tactic.overload.enabled;
  ad.sample_window =
      (50 + rng.uniform(451)) * event::kMillisecond;  // 50-500 ms
  ad.min_window_samples = 2 + rng.uniform(15);
  ad.probe_interval_windows = 4 + rng.uniform(17);
  ad.probe_jitter_windows = rng.uniform(6);
  ad.headroom = 0.05 + 0.25 * rng.uniform_double();
  ad.min_limit = 2 + rng.uniform(7);
  ad.max_limit =
      std::max(config.tactic.overload.queue_capacity, ad.min_limit + 1) +
      rng.uniform(256);
  ad.watermark_fraction = 0.25 + 0.5 * rng.uniform_double();
  ad.quarantine_consecutive = rng.bernoulli(0.8) ? 3 + rng.uniform(8) : 0;
  ad.quarantine_base = (1 + rng.uniform(4)) * event::kSecond;
  ad.quarantine_factor = 1.5 + rng.uniform_double();
  ad.quarantine_max = (10 + rng.uniform(51)) * event::kSecond;
  ad.quarantine_jitter = 0.5 * rng.uniform_double();
  ad.enabled = arm;
}

// Samples the tag-lifecycle layer (docs/FAULTS.md, "Clock skew & tag
// lifecycle"): skewed node clocks, the edge skew-tolerance window,
// outage grace mode, and proactive client renewal.  Every knob is drawn
// unconditionally so the draw count per seed is fixed; each feature arms
// independently so every control group (skewed clocks without tolerance,
// tolerance without skew, grace alone, ...) occurs.  The bounds keep the
// security envelope: tolerance (<= validity/4) + grace window
// (<= validity/2) + worst per-node offset (<= validity/8) stays below
// one tag validity, so the attacker tags expired by >= a full validity
// can never be accepted through any widened window.
void sample_lifecycle(util::Rng& rng, sim::ScenarioConfig& config) {
  const double validity = static_cast<double>(config.provider.tag_validity);
  const bool skewed_clocks = rng.bernoulli(0.7);
  const event::Time max_offset =
      static_cast<event::Time>(rng.uniform_double() * validity / 8.0);
  const double max_drift = 0.01 * rng.uniform_double();
  const bool tolerant = rng.bernoulli(0.7);
  const event::Time tolerance = static_cast<event::Time>(
      (0.5 + 0.5 * rng.uniform_double()) * validity / 4.0);
  const bool graceful = rng.bernoulli(0.5);
  const event::Time grace_window = static_cast<event::Time>(
      (0.25 + 0.75 * rng.uniform_double()) * validity / 2.0);
  const event::Time silence =
      static_cast<event::Time>(500 + rng.uniform(1500)) *
      event::kMillisecond;
  const bool renewing = rng.bernoulli(0.6);
  const event::Time lead = static_cast<event::Time>(
      (0.5 + 0.5 * rng.uniform_double()) * validity / 4.0);
  const event::Time jitter = static_cast<event::Time>(
      rng.uniform_double() * static_cast<double>(lead) / 2.0);
  if (skewed_clocks) {
    config.faults.clock_skew.max_offset = max_offset;
    config.faults.clock_skew.max_drift = max_drift;
  }
  if (tolerant) {
    config.tactic.skew.enabled = true;
    config.tactic.skew.tolerance = tolerance;
  }
  if (graceful) {
    config.tactic.grace.enabled = true;
    config.tactic.grace.window = grace_window;
    config.tactic.grace.provider_silence = silence;
    // Clients keep using a just-expired tag for the same window, so the
    // edge's grace path actually sees traffic during provider silence.
    config.client.expired_tag_grace = grace_window;
  }
  if (renewing) {
    config.client.proactive_renewal = true;
    config.client.renewal_lead = lead;
    config.client.renewal_jitter = jitter;
  }
}

}  // namespace

sim::ScenarioConfig random_config(std::uint64_t seed,
                                  const GeneratorOptions& options) {
  util::Rng rng(seed);
  sim::ScenarioConfig config;

  config.topology.core_routers = 6 + rng.uniform(10);
  config.topology.edge_routers = 2 + rng.uniform(3);
  config.topology.providers = 1 + rng.uniform(3);
  config.topology.clients = 2 + rng.uniform(5);
  config.topology.attackers = 1 + rng.uniform(3);
  config.topology.aps_per_edge = 1 + rng.uniform(2);
  config.topology.core_cs_capacity = 200 + rng.uniform(800);
  config.topology.edge_cs_capacity = 0;

  config.policy =
      options.forced_policy ? *options.forced_policy : sample_policy(rng);

  config.tactic.bloom.capacity = 50 + rng.uniform(450);
  config.tactic.bloom.hashes = 5;
  config.tactic.bloom.design_fpp = 1e-4;
  config.tactic.bloom.max_fpp = rng.bernoulli(0.5) ? 1e-4 : 1e-3;
  config.tactic.flag_cooperation = rng.bernoulli(0.75);
  // Protocol 1 stays on: its ablation legitimately leaks structurally
  // invalid tags, which would void the delivery invariant.
  config.tactic.precheck = true;
  config.tactic.enforce_access_path = rng.bernoulli(0.3);
  config.tactic.fault_skip_expiry_precheck = options.inject_expiry_bug;

  config.provider.tag_validity = (3 + rng.uniform(27)) * event::kSecond;
  config.provider.key_bits = 512;  // fast; strength is irrelevant here
  config.provider.catalog.objects = 5 + rng.uniform(15);
  config.provider.catalog.chunks_per_object = 3 + rng.uniform(6);
  config.provider.catalog.chunk_size = 1024;
  config.provider.catalog.high_al_fraction =
      rng.bernoulli(0.5) ? 0.25 : 0.0;
  // No public objects: the end-of-run attacker accounting assumes every
  // delivery to an attacker crossed an access-control decision.
  config.provider.catalog.public_fraction = 0.0;

  config.client.window = 3 + rng.uniform(4);
  config.client.think_time_mean =
      (10 + rng.uniform(90)) * event::kMillisecond;

  // Attackers probe far faster than the paper's 90 s tempo so short fuzz
  // runs actually exercise the rejection paths.
  config.attacker.window = 2 + rng.uniform(4);
  config.attacker.think_time_mean =
      (100 + rng.uniform(900)) * event::kMillisecond;

  // All five default threat modes, in a seed-dependent assignment order.
  // kSharedTag stays out: its fallback victim selection can legitimately
  // hand an attacker a same-AP tag, which no invariant can condemn.
  for (std::size_t i = config.attacker_mix.size(); i > 1; --i) {
    std::swap(config.attacker_mix[i - 1],
              config.attacker_mix[rng.uniform(i)]);
  }

  config.compute = rng.bernoulli(0.5) ? core::ComputeModel::paper_defaults()
                                      : core::ComputeModel::zero();

  config.duration =
      options.duration +
      static_cast<event::Time>(rng.uniform(
          static_cast<std::uint64_t>(options.duration / 2) + 1));
  config.seed = seed;
  config.enable_traitor_tracing = false;

  // Fault draws come strictly AFTER every base draw, so the base
  // configuration for a given seed is identical with or without faults.
  if (options.with_faults) {
    config.faults = sample_fault_plan(rng, config.duration);
  }
  // Overload draws come after the fault draws for the same reason.
  if (options.with_overload) {
    sample_overload(rng, config);
  }
  // And batch draws come after overload.
  if (options.with_batch) {
    sample_batch(rng, config);
  }
  // The bigtables draw comes last of all: 10^4–10^5 junk FIB prefixes
  // per router (the prefixes themselves come from a dedicated stream in
  // Scenario::prepopulate_fib, not from this rng).
  if (options.with_bigtables) {
    config.prepopulate_fib_prefixes =
        static_cast<std::size_t>(1 + rng.uniform(10)) * 10000;
  }
  // Adaptive draws come after everything above (satisfying "strictly
  // after batch" while also leaving the bigtables draw untouched), so
  // base, fault, overload, batch and bigtables configurations stay
  // identical with or without this option.
  if (options.with_adaptive) {
    sample_adaptive(rng, config);
  }
  // Lifecycle draws come last of all (strictly after adaptive), so every
  // prior layer's configuration stays identical with or without this
  // option.
  if (options.with_skew) {
    sample_lifecycle(rng, config);
  }
  return config;
}

std::string describe(const sim::ScenarioConfig& config) {
  char buffer[256];
  std::snprintf(
      buffer, sizeof(buffer),
      "seed=%llu policy=%s topo=c%zu/e%zu/p%zu users=%zu+%zu ap%zu "
      "bloom=%zu@%.0e flagF=%d appath=%d validity=%.0fs catalog=%zux%zu "
      "dur=%.1fs%s",
      static_cast<unsigned long long>(config.seed),
      sim::to_string(config.policy), config.topology.core_routers,
      config.topology.edge_routers, config.topology.providers,
      config.topology.clients, config.topology.attackers,
      config.topology.aps_per_edge, config.tactic.bloom.capacity,
      config.tactic.bloom.max_fpp,
      config.tactic.flag_cooperation ? 1 : 0,
      config.tactic.enforce_access_path ? 1 : 0,
      event::to_seconds(config.provider.tag_validity),
      config.provider.catalog.objects,
      config.provider.catalog.chunks_per_object,
      event::to_seconds(config.duration),
      config.tactic.fault_skip_expiry_precheck ? " FAULT=expiry-precheck"
                                               : "");
  std::string out = buffer;
  if (config.faults.any()) {
    std::snprintf(
        buffer, sizeof(buffer),
        " chaos[edge=%.3f/%.3f core=%.3f/%.3f crashes=%zu flaps=%zu%s]",
        config.faults.edge_links.loss, config.faults.edge_links.corruption,
        config.faults.core_links.loss, config.faults.core_links.corruption,
        config.faults.crashes.size(), config.faults.flaps.size(),
        config.faults.severe(config.duration) ? " SEVERE" : "");
    out += buffer;
  }
  if (config.tactic.overload.enabled) {
    const core::OverloadConfig& ov = config.tactic.overload;
    std::snprintf(
        buffer, sizeof(buffer),
        " overload[q=%zu/%zu neg=%zu@%.0fs police=%.0f/s staged=%d "
        "grace=%.0fs pit=%zu]",
        ov.shed_watermark, ov.queue_capacity, ov.neg_cache_capacity,
        event::to_seconds(ov.neg_cache_ttl), ov.policer_rate,
        ov.staged_bf_reset ? 1 : 0,
        event::to_seconds(ov.staged_reset_grace),
        config.router_pit_capacity);
    out += buffer;
  }
  if (config.tactic.batch.enabled) {
    std::snprintf(buffer, sizeof(buffer), " batch[n=%zu hold=%.1fms]",
                  config.tactic.batch.max_batch,
                  event::to_seconds(config.tactic.batch.max_hold) * 1e3);
    out += buffer;
  }
  if (config.prepopulate_fib_prefixes > 0) {
    std::snprintf(buffer, sizeof(buffer), " bigtables[fib=%zu]",
                  config.prepopulate_fib_prefixes);
    out += buffer;
  }
  if (config.tactic.adaptive.enabled) {
    const core::AdaptiveConfig& ad = config.tactic.adaptive;
    std::snprintf(
        buffer, sizeof(buffer),
        " adaptive[win=%.0fms lim=%zu..%zu probe=%u+%u hr=%.2f wm=%.2f "
        "quar=%zux%.0fs^%.1f]",
        event::to_seconds(ad.sample_window) * 1e3, ad.min_limit,
        ad.max_limit, ad.probe_interval_windows, ad.probe_jitter_windows,
        ad.headroom, ad.watermark_fraction, ad.quarantine_consecutive,
        event::to_seconds(ad.quarantine_base), ad.quarantine_factor);
    out += buffer;
  }
  if (config.faults.clock_skew.any() || config.tactic.skew.enabled ||
      config.tactic.grace.enabled || config.client.proactive_renewal) {
    std::snprintf(
        buffer, sizeof(buffer),
        " lifecycle[off=%.2fs drift=%.3f tol=%s%.2fs grace=%s%.2fs@%.1fs "
        "renew=%s%.2fs~%.2fs]",
        event::to_seconds(config.faults.clock_skew.max_offset),
        config.faults.clock_skew.max_drift,
        config.tactic.skew.enabled ? "" : "!",
        event::to_seconds(config.tactic.skew.tolerance),
        config.tactic.grace.enabled ? "" : "!",
        event::to_seconds(config.tactic.grace.window),
        event::to_seconds(config.tactic.grace.provider_silence),
        config.client.proactive_renewal ? "" : "!",
        event::to_seconds(config.client.renewal_lead),
        event::to_seconds(config.client.renewal_jitter));
    out += buffer;
  }
  return out;
}

}  // namespace tactic::testing
