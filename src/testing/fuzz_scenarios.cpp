// fuzz_scenarios — deterministic scenario fuzzing for the TACTIC simulator.
//
// Each run samples a seeded ScenarioConfig (testing::random_config), runs
// it under the runtime invariant checker, then runs it AGAIN and
// byte-compares the metrics fingerprint and packet-trace digest — any
// divergence means hidden nondeterminism.  For TACTIC runs a differential
// pass repeats the same seed under kNoAccessControl and asserts that
// access control did not cost legitimate clients delivery (within a
// tolerance) while attackers were actually blocked.
//
// Exit status 0 = every run clean; 1 = any invariant violation,
// reproducibility mismatch, or differential parity failure.
//
// Reproduce a failure exactly:  fuzz_scenarios --seed N --repro

#include <cstdio>
#include <exception>
#include <optional>
#include <set>
#include <string>

#include "sim/scenario.hpp"
#include "testing/fingerprint.hpp"
#include "testing/generator.hpp"
#include "testing/invariants.hpp"
#include "util/flags.hpp"

namespace {

using namespace tactic;

constexpr const char* kUsage =
    "usage: fuzz_scenarios [options]\n"
    "  --runs N             scenarios to fuzz (default 20)\n"
    "  --seed BASE          first seed; run i uses BASE+i (default 1)\n"
    "  --duration S         base simulated seconds per run (default 10)\n"
    "  --policy NAME        force one policy: tactic|none|client|auth|probbf\n"
    "  --faults             sample a random fault plan per seed (lossy and\n"
    "                       flapping links, router crash-restarts); the\n"
    "                       security invariants must still hold\n"
    "  --overload           sample an overload-resilience configuration per\n"
    "                       seed (validation queue, shedding, negative\n"
    "                       cache, staged reset, bounded PIT), often with\n"
    "                       an attacker flood\n"
    "  --batch              sample the batched-validation layer per seed\n"
    "                       (per-provider signature batches, same-instant\n"
    "                       BF multi-probe); batch draws come after\n"
    "                       base+fault+overload draws\n"
    "  --bigtables          pre-populate every router FIB with 10^4-10^5\n"
    "                       random prefixes, and re-run each scenario on\n"
    "                       the linear reference FIB asserting bit-equal\n"
    "                       fingerprints and traces (hash ≡ linear)\n"
    "  --adaptive           sample the adaptive overload-control layer\n"
    "                       (gradient admission controller + per-face\n"
    "                       quarantine) on most seeds where --overload\n"
    "                       armed; adaptive draws come after all others\n"
    "  --skew               sample the tag-lifecycle layer (skewed node\n"
    "                       clocks, skew-tolerant expiry, outage grace,\n"
    "                       proactive renewal); lifecycle draws come last\n"
    "                       of all\n"
    "  --no-differential    skip the TACTIC vs no-AC parity pass\n"
    "  --parity-tolerance T allowed client delivery-ratio gap (default 0.1)\n"
    "  --inject-expiry-bug  edge routers skip the Protocol-1 expiry check\n"
    "                       (the invariants must catch it => exit 1)\n"
    "  --repro              single verbose run of --seed (sets --runs 1)\n"
    "  --verbose            per-run invariant reports\n";

struct PassResult {
  std::string metrics_fingerprint;
  std::string trace_digest;
  std::uint64_t violations = 0;
  std::string report;
  double client_ratio = 0.0;
  double attacker_ratio = 0.0;
  std::uint64_t attacker_requested = 0;
  std::uint64_t attacker_received = 0;
};

PassResult run_pass(const sim::ScenarioConfig& config) {
  sim::Scenario scenario(config);
  testing::InvariantChecker checker(scenario);
  checker.arm();
  scenario.run();
  checker.finalize();
  const sim::Metrics metrics = scenario.harvest();
  PassResult result;
  result.metrics_fingerprint = testing::fingerprint_digest(metrics);
  result.trace_digest = checker.trace_digest();
  result.violations = checker.violation_count();
  result.report = checker.report();
  result.client_ratio = metrics.clients.delivery_ratio();
  result.attacker_ratio = metrics.attackers.delivery_ratio();
  result.attacker_requested = metrics.attackers.requested;
  result.attacker_received = metrics.attackers.received;
  return result;
}

std::optional<sim::PolicyKind> parse_policy(const std::string& name) {
  if (name == "tactic") return sim::PolicyKind::kTactic;
  if (name == "none" || name == "noac") {
    return sim::PolicyKind::kNoAccessControl;
  }
  if (name == "client") return sim::PolicyKind::kClientSideAc;
  if (name == "auth") return sim::PolicyKind::kPerRequestAuth;
  if (name == "probbf") return sim::PolicyKind::kProbBf;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);
    const std::set<std::string> known = {
        "runs",   "seed",        "duration",          "policy",
        "repro",  "verbose",     "differential",      "parity-tolerance",
        "help",   "inject-expiry-bug",                "faults",
        "overload", "batch",     "bigtables",         "adaptive",
        "skew"};
    for (const auto& name : flags.names()) {
      if (known.count(name) == 0) {
        std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(), kUsage);
        return 2;
      }
    }
    if (flags.get_bool("help", false)) {
      std::fputs(kUsage, stdout);
      return 0;
    }

    const bool repro = flags.get_bool("repro", false);
    const std::int64_t runs_raw = flags.get_int("runs", 20);
    if (runs_raw < 0) {
      std::fprintf(stderr, "--runs must be >= 0\n%s", kUsage);
      return 2;
    }
    const std::uint64_t runs =
        repro ? 1 : static_cast<std::uint64_t>(runs_raw);
    const std::uint64_t base_seed =
        static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const bool differential = flags.get_bool("differential", true);
    const double parity_tolerance =
        flags.get_double("parity-tolerance", 0.1);
    const bool verbose = repro || flags.get_bool("verbose", false);

    testing::GeneratorOptions generator;
    const double duration_s = flags.get_double("duration", 10.0);
    if (!(duration_s > 0.0)) {
      std::fprintf(stderr, "--duration must be positive\n%s", kUsage);
      return 2;
    }
    generator.duration = event::from_seconds(duration_s);
    generator.inject_expiry_bug = flags.get_bool("inject-expiry-bug", false);
    generator.with_faults = flags.get_bool("faults", false);
    generator.with_overload = flags.get_bool("overload", false);
    generator.with_batch = flags.get_bool("batch", false);
    generator.with_bigtables = flags.get_bool("bigtables", false);
    generator.with_adaptive = flags.get_bool("adaptive", false);
    generator.with_skew = flags.get_bool("skew", false);
    if (flags.has("policy")) {
      const std::string name = flags.get_string("policy", "");
      const auto policy = parse_policy(name);
      if (!policy) {
        std::fprintf(stderr, "unknown policy '%s'\n%s", name.c_str(),
                     kUsage);
        return 2;
      }
      generator.forced_policy = policy;
    }

    std::uint64_t violation_runs = 0;
    std::uint64_t repro_mismatches = 0;
    std::uint64_t parity_failures = 0;
    std::uint64_t impl_mismatches = 0;
    std::uint64_t differential_runs = 0;

    for (std::uint64_t i = 0; i < runs; ++i) {
      const std::uint64_t seed = base_seed + i;
      const sim::ScenarioConfig config =
          testing::random_config(seed, generator);
      std::printf("[%llu/%llu] %s\n",
                  static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(runs),
                  testing::describe(config).c_str());
      std::fflush(stdout);

      const PassResult first = run_pass(config);
      const PassResult second = run_pass(config);

      bool failed = false;
      if (first.violations != 0) {
        ++violation_runs;
        failed = true;
        std::printf("  INVARIANT VIOLATIONS:\n%s", first.report.c_str());
      } else if (verbose) {
        std::printf("  %s", first.report.c_str());
      }
      if (first.metrics_fingerprint != second.metrics_fingerprint ||
          first.trace_digest != second.trace_digest) {
        ++repro_mismatches;
        failed = true;
        std::printf(
            "  REPRODUCIBILITY MISMATCH:\n"
            "    pass 1: metrics=%s trace=%s\n"
            "    pass 2: metrics=%s trace=%s\n",
            first.metrics_fingerprint.c_str(), first.trace_digest.c_str(),
            second.metrics_fingerprint.c_str(),
            second.trace_digest.c_str());
      } else if (verbose) {
        std::printf("  metrics=%s\n  trace=%s\n",
                    first.metrics_fingerprint.c_str(),
                    first.trace_digest.c_str());
      }

      // Table-structure differential: the same scenario on the linear
      // reference FIB must be bit-identical — the prefix-hash index is a
      // pure lookup structure, never a semantics change.
      if (generator.with_bigtables) {
        sim::ScenarioConfig linear = config;
        linear.fib_impl = ndn::Fib::Impl::kLinear;
        const PassResult ref = run_pass(linear);
        if (first.metrics_fingerprint != ref.metrics_fingerprint ||
            first.trace_digest != ref.trace_digest) {
          ++impl_mismatches;
          failed = true;
          std::printf(
              "  FIB IMPL MISMATCH (prefix hash vs linear):\n"
              "    hash:   metrics=%s trace=%s\n"
              "    linear: metrics=%s trace=%s\n",
              first.metrics_fingerprint.c_str(), first.trace_digest.c_str(),
              ref.metrics_fingerprint.c_str(), ref.trace_digest.c_str());
        } else if (verbose) {
          std::printf("  fib impls agree (prefix hash == linear)\n");
        }
      }

      // The parity pass keeps the fault plan: TACTIC and no-AC face the
      // same chaos.  A severe plan can starve either side arbitrarily,
      // so only non-severe plans are compared, with extra tolerance for
      // fault-draw noise between the two policies' traffic patterns.
      const bool severe_faults =
          config.faults.severe(config.duration);
      if (differential && config.policy == sim::PolicyKind::kTactic &&
          !severe_faults) {
        ++differential_runs;
        sim::ScenarioConfig baseline = config;
        baseline.policy = sim::PolicyKind::kNoAccessControl;
        const PassResult open = run_pass(baseline);
        // Shedding and floods cost some legitimate delivery relative to a
        // shed-nothing open network, so overload runs get extra headroom
        // (as fault plans do).
        // The gradient controller deliberately tightens the limit under
        // pressure, so adaptive runs can shed a bit more legitimate load
        // than static knobs before recovering.
        // Skewed clocks make TACTIC reject genuinely expired tags that a
        // checks-nothing open network would happily serve, so skewed runs
        // get their own headroom on top of the chaos term.
        const double tolerance =
            parity_tolerance + (config.faults.any() ? 0.15 : 0.0) +
            (config.tactic.overload.enabled ? 0.15 : 0.0) +
            (config.tactic.batch.enabled ? 0.05 : 0.0) +
            (config.tactic.adaptive.enabled ? 0.10 : 0.0) +
            (config.faults.clock_skew.any() ? 0.15 : 0.0);
        const bool parity_ok =
            first.client_ratio + tolerance >= open.client_ratio;
        const bool blocked = open.attacker_requested == 0 ||
                             open.attacker_received > first.attacker_received;
        if (!parity_ok || !blocked) {
          ++parity_failures;
          failed = true;
          std::printf(
              "  DIFFERENTIAL FAILURE: clients tactic=%.3f open=%.3f "
              "(tolerance %.3f); attackers tactic=%llu open=%llu\n",
              first.client_ratio, open.client_ratio, tolerance,
              static_cast<unsigned long long>(first.attacker_received),
              static_cast<unsigned long long>(open.attacker_received));
        } else if (verbose) {
          std::printf(
              "  differential: clients tactic=%.3f open=%.3f; "
              "attacker chunks tactic=%llu open=%llu\n",
              first.client_ratio, open.client_ratio,
              static_cast<unsigned long long>(first.attacker_received),
              static_cast<unsigned long long>(open.attacker_received));
        }
      }
      if (failed) {
        std::printf(
            "  reproduce: fuzz_scenarios --seed %llu --repro%s%s%s%s%s%s%s\n",
            static_cast<unsigned long long>(seed),
            generator.inject_expiry_bug ? " --inject-expiry-bug" : "",
            generator.with_faults ? " --faults" : "",
            generator.with_overload ? " --overload" : "",
            generator.with_batch ? " --batch" : "",
            generator.with_bigtables ? " --bigtables" : "",
            generator.with_adaptive ? " --adaptive" : "",
            generator.with_skew ? " --skew" : "");
      }
    }

    const std::uint64_t failures = violation_runs + repro_mismatches +
                                   parity_failures + impl_mismatches;
    std::printf(
        "fuzz_scenarios: %llu runs (%llu differential) — "
        "%llu with violations, %llu repro mismatches, %llu parity "
        "failures, %llu fib-impl mismatches\n",
        static_cast<unsigned long long>(runs),
        static_cast<unsigned long long>(differential_runs),
        static_cast<unsigned long long>(violation_runs),
        static_cast<unsigned long long>(repro_mismatches),
        static_cast<unsigned long long>(parity_failures),
        static_cast<unsigned long long>(impl_mismatches));
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fuzz_scenarios: %s\n%s", error.what(), kUsage);
    return 2;
  }
}
