#pragma once
// Deterministic scenario generator for the fuzz / invariant harness.
//
// Every sampled configuration derives entirely from one 64-bit seed, so
// a failing seed printed by `fuzz_scenarios` is a complete reproduction
// recipe (`fuzz_scenarios --seed N --repro`).  The sampled space covers
// topology sizes, user mixes and tempos, tag validity windows, Bloom
// sizing, catalog shape, compute charging, and the policy kind.

#include <cstdint>
#include <optional>
#include <string>

#include "sim/scenario.hpp"

namespace tactic::testing {

struct GeneratorOptions {
  /// Base simulated duration; each sample adds up to 50% jitter.
  event::Time duration = 10 * event::kSecond;
  /// When set, every sample uses this policy; otherwise the kind is
  /// drawn uniformly over all five.
  std::optional<sim::PolicyKind> forced_policy;
  /// Inject the Protocol-1 expiry-check fault into TACTIC edge routers
  /// (core::TacticConfig::fault_skip_expiry_precheck) — the regression
  /// the runtime invariants must catch.
  bool inject_expiry_bug = false;
  /// Sample a random sim::FaultPlan (lossy/bursty/corrupting links,
  /// crash-restarts, link flaps) on ~3 in 4 seeds.  The fault draws are
  /// appended after every base draw, so for a given seed the base
  /// configuration is identical with and without this option.
  bool with_faults = false;
  /// Sample an overload-resilience configuration (validation queue,
  /// shedding, negative cache, policer, staged reset, bounded PIT) on
  /// most seeds, often with an attacker flood to pressure it.  The
  /// overload draws come strictly after the fault draws, so base and
  /// fault configurations stay identical with or without this option.
  bool with_overload = false;
  /// Sample the batched-validation layer (per-provider signature batches
  /// + same-instant BF multi-probe; docs/ARCHITECTURE.md, "Batched
  /// validation") on most seeds.  The batch draws come strictly after the
  /// overload draws, so base, fault and overload configurations stay
  /// identical with or without this option.
  bool with_batch = false;
  /// Pre-populate every edge/core router FIB with 10^4–10^5 random junk
  /// prefixes (sim::ScenarioConfig::prepopulate_fib_prefixes), pushing
  /// the tables toward the million-entry regime.  The single bigtables
  /// draw comes last of all (after batch), and prepopulation itself uses
  /// a dedicated RNG stream, so all prior layers stay identical with or
  /// without this option.
  bool with_bigtables = false;
  /// Sample the adaptive overload-control layer (gradient admission
  /// controller + per-face outlier quarantine; docs/OVERLOAD.md) on most
  /// seeds where the overload layer is on.  The adaptive draws come
  /// strictly after every other layer's draws (faults, overload, batch,
  /// bigtables), so all prior configurations stay identical with or
  /// without this option.
  bool with_adaptive = false;
  /// Sample the tag-lifecycle layer (docs/FAULTS.md, "Clock skew & tag
  /// lifecycle"): skewed node clocks (sim::ClockSkewSpec), the edge
  /// skew-tolerance window, outage grace mode, and proactive client
  /// renewal.  Every knob is drawn unconditionally and the draws come
  /// strictly after every other layer's, so all prior configurations
  /// stay identical with or without this option.  Sampled bounds keep
  /// tolerance + grace + worst-case skew well under the tag validity, so
  /// deliberately pre-expired attacker tags can never slip inside a
  /// widened window.
  bool with_skew = false;
};

/// Deterministically samples one scenario configuration from `seed`.
/// Same seed + same options => identical configuration, always.
sim::ScenarioConfig random_config(std::uint64_t seed,
                                  const GeneratorOptions& options = {});

/// One-line human-readable summary of a sampled configuration.
std::string describe(const sim::ScenarioConfig& config);

}  // namespace tactic::testing
