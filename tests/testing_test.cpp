// Tests for the fuzz/invariant harness itself (src/testing): generator
// determinism, clean runs staying clean, bit-reproducibility, the
// differential TACTIC-vs-open parity, and — crucially — that a
// deliberately injected forwarder bug IS caught by the runtime
// invariants (a checker that can't fail is not a checker).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"
#include "testing/fingerprint.hpp"
#include "testing/generator.hpp"
#include "testing/invariants.hpp"

namespace tactic {
// `tactic::testing` would be ambiguous with gtest's `::testing` here.
namespace testing_ = ::tactic::testing;
namespace {

testing_::GeneratorOptions quick_options() {
  testing_::GeneratorOptions options;
  options.duration = 8 * event::kSecond;
  return options;
}

struct CheckedRun {
  std::string metrics_fingerprint;
  std::string trace_digest;
  std::uint64_t violations = 0;
  std::string report;
  sim::Metrics metrics;
};

CheckedRun checked_run(const sim::ScenarioConfig& config) {
  sim::Scenario scenario(config);
  testing_::InvariantChecker checker(scenario);
  checker.arm();
  scenario.run();
  checker.finalize();
  CheckedRun run;
  run.metrics = scenario.harvest();
  run.metrics_fingerprint = testing_::fingerprint(run.metrics);
  run.trace_digest = checker.trace_digest();
  run.violations = checker.violation_count();
  run.report = checker.report();
  return run;
}

TEST(Generator, SameSeedSameConfig) {
  const auto a = testing_::random_config(42, quick_options());
  const auto b = testing_::random_config(42, quick_options());
  EXPECT_EQ(testing_::describe(a), testing_::describe(b));
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.topology.core_routers, b.topology.core_routers);
  EXPECT_EQ(a.tactic.bloom.capacity, b.tactic.bloom.capacity);
  EXPECT_EQ(a.provider.tag_validity, b.provider.tag_validity);
}

TEST(Generator, DifferentSeedsDiffer) {
  const auto a = testing_::random_config(1, quick_options());
  const auto b = testing_::random_config(2, quick_options());
  EXPECT_NE(testing_::describe(a), testing_::describe(b));
}

TEST(InvariantChecker, CleanTacticRunHasNoViolations) {
  auto options = quick_options();
  options.forced_policy = sim::PolicyKind::kTactic;
  const auto run = checked_run(testing_::random_config(7, options));
  EXPECT_EQ(run.violations, 0u) << run.report;
  EXPECT_GT(run.metrics.clients.received, 0u);
}

TEST(InvariantChecker, RunsAreBitReproducible) {
  auto options = quick_options();
  options.forced_policy = sim::PolicyKind::kTactic;
  const auto config = testing_::random_config(11, options);
  const auto first = checked_run(config);
  const auto second = checked_run(config);
  EXPECT_EQ(first.metrics_fingerprint, second.metrics_fingerprint);
  EXPECT_EQ(first.trace_digest, second.trace_digest);
}

TEST(InvariantChecker, InjectedExpiryBugIsCaught) {
  auto options = quick_options();
  options.forced_policy = sim::PolicyKind::kTactic;
  options.inject_expiry_bug = true;
  // Seed 1 catches the fault within the first simulated second (expired
  // tags served from core caches once the edge skips Protocol 1).
  const auto run = checked_run(testing_::random_config(1, options));
  EXPECT_GT(run.violations, 0u);
  EXPECT_NE(run.report.find("expired tag honoured"), std::string::npos)
      << run.report;
}

TEST(InvariantChecker, InjectedBugLeavesOpenPolicyClean) {
  // The fault only exists in TACTIC edge routers; the same seed under
  // kNoAccessControl must stay violation-free (the checker does not
  // condemn policies whose contract allows attacker deliveries).
  auto options = quick_options();
  options.forced_policy = sim::PolicyKind::kNoAccessControl;
  options.inject_expiry_bug = true;
  const auto run = checked_run(testing_::random_config(1, options));
  EXPECT_EQ(run.violations, 0u) << run.report;
}

TEST(Differential, TacticMatchesOpenDeliveryForClients) {
  auto options = quick_options();
  options.forced_policy = sim::PolicyKind::kTactic;
  auto config = testing_::random_config(5, options);
  const auto tactic = checked_run(config);
  config.policy = sim::PolicyKind::kNoAccessControl;
  const auto open = checked_run(config);
  EXPECT_EQ(tactic.violations, 0u) << tactic.report;
  EXPECT_EQ(open.violations, 0u) << open.report;
  // Legitimate clients keep their delivery ratio under access control.
  EXPECT_GE(tactic.metrics.clients.delivery_ratio() + 0.1,
            open.metrics.clients.delivery_ratio());
  // Attackers do not (they fetch freely only in the open network).
  EXPECT_EQ(tactic.metrics.attackers.received, 0u);
  EXPECT_GT(open.metrics.attackers.received, 0u);
}

TEST(Generator, FaultsDrawnDeterministicallyAfterBaseConfig) {
  auto with = quick_options();
  with.with_faults = true;
  const auto a = testing_::random_config(42, with);
  const auto b = testing_::random_config(42, with);
  EXPECT_EQ(testing_::describe(a), testing_::describe(b));
  EXPECT_EQ(a.faults.fault_seed, b.faults.fault_seed);
  EXPECT_EQ(a.faults.edge_links.loss, b.faults.edge_links.loss);
  EXPECT_EQ(a.faults.crashes.size(), b.faults.crashes.size());
  EXPECT_EQ(a.faults.flaps.size(), b.faults.flaps.size());

  // Fault draws are appended AFTER every base draw, so turning them on
  // must not perturb the base scenario for the same seed.
  const auto base = testing_::random_config(42, quick_options());
  EXPECT_EQ(base.seed, a.seed);
  EXPECT_EQ(base.policy, a.policy);
  EXPECT_EQ(base.topology.core_routers, a.topology.core_routers);
  EXPECT_EQ(base.topology.aps_per_edge, a.topology.aps_per_edge);
  EXPECT_EQ(base.provider.tag_validity, a.provider.tag_validity);
  EXPECT_EQ(base.tactic.bloom.capacity, a.tactic.bloom.capacity);
  EXPECT_FALSE(base.faults.any());
}

TEST(Generator, SomeFaultSeedsStayFaultless) {
  // sample_fault_plan keeps ~1 in 4 seeds as a faultless control group;
  // over 40 seeds both populations must be represented.
  auto options = quick_options();
  options.with_faults = true;
  std::size_t faulty = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    if (testing_::random_config(seed, options).faults.any()) ++faulty;
  }
  EXPECT_GT(faulty, 0u);
  EXPECT_LT(faulty, 40u);
}

TEST(InvariantChecker, FaultyRunsAreBitReproducible) {
  auto options = quick_options();
  options.forced_policy = sim::PolicyKind::kTactic;
  options.with_faults = true;
  // Seed 3 draws a non-empty plan (asserted, so a generator change that
  // silently empties it fails loudly instead of weakening the test).
  const auto config = testing_::random_config(3, options);
  ASSERT_TRUE(config.faults.any());
  const auto first = checked_run(config);
  const auto second = checked_run(config);
  EXPECT_EQ(first.violations, 0u) << first.report;
  EXPECT_EQ(first.metrics_fingerprint, second.metrics_fingerprint);
  EXPECT_EQ(first.trace_digest, second.trace_digest);
}

TEST(Fingerprint, DistinguishesDifferentRuns) {
  auto options = quick_options();
  options.forced_policy = sim::PolicyKind::kTactic;
  const auto a = checked_run(testing_::random_config(7, options));
  const auto b = checked_run(testing_::random_config(8, options));
  EXPECT_NE(a.metrics_fingerprint, b.metrics_fingerprint);
  EXPECT_NE(testing_::fingerprint_digest(a.metrics),
            testing_::fingerprint_digest(b.metrics));
}

std::vector<std::string> fingerprint_lines(const sim::Metrics& metrics) {
  std::vector<std::string> lines;
  std::istringstream in(testing_::fingerprint(metrics));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// The batch, adaptive and lifecycle blocks print if and only if one of
// their printed rows is nonzero; the fuzz goldens never enable those
// layers, so this is what pins the blocks.  Setting any printed row of a
// block must add exactly that block, and setting a row the fingerprint
// never prints must change nothing.  A few batch rows only ever move
// together with another: sig_batch_peak with sig_batched_items (an item
// was queued), the flush-reason counts and the unbatched equivalent with
// sig_batches_flushed (a batch flushed).  Those are set with their
// partner, the state a run can reach.
TEST(Fingerprint, LayerBlocksPrintOnlyWhenTheirRowsMove) {
  using Set = std::function<void(sim::RouterOps&)>;
  struct Block {
    std::vector<std::string> keys;  // in print order
    std::vector<Set> rows;          // one setter per printed row
  };
  const std::vector<Block> blocks = {
      {{"sig_batches_flushed", "sig_batched_items", "sig_batch_flush_size_cap",
        "sig_batch_flush_deadline", "sig_batch_flush_queue_drain",
        "sig_batches_dropped", "sig_batch_peak", "sig_batch_unbatched_equiv_s",
        "bf_probes_coalesced"},
       {[](sim::RouterOps& o) { o.sig_batches_flushed = 1; },
        [](sim::RouterOps& o) { o.sig_batched_items = 1; },
        [](sim::RouterOps& o) {
          o.sig_batches_flushed = 1;
          o.sig_batch_flush_size_cap = 1;
        },
        [](sim::RouterOps& o) {
          o.sig_batches_flushed = 1;
          o.sig_batch_flush_deadline = 1;
        },
        [](sim::RouterOps& o) {
          o.sig_batches_flushed = 1;
          o.sig_batch_flush_queue_drain = 1;
        },
        [](sim::RouterOps& o) { o.sig_batches_dropped = 1; },
        [](sim::RouterOps& o) {
          o.sig_batched_items = 1;
          o.sig_batch_peak = 1;
        },
        [](sim::RouterOps& o) {
          o.sig_batches_flushed = 1;
          o.sig_batch_unbatched_equiv_s = 0.5;
        },
        [](sim::RouterOps& o) { o.bf_probes_coalesced = 1; }}},
      {{"adaptive_windows", "adaptive_minrtt_probes", "quarantine_sheds",
        "quarantine_ejections", "quarantine_probes",
        "quarantine_readmissions"},
       {[](sim::RouterOps& o) { o.adaptive_windows = 1; },
        [](sim::RouterOps& o) { o.adaptive_minrtt_probes = 1; },
        [](sim::RouterOps& o) { o.quarantine_sheds = 1; },
        [](sim::RouterOps& o) { o.quarantine_ejections = 1; },
        [](sim::RouterOps& o) { o.quarantine_probes = 1; },
        [](sim::RouterOps& o) { o.quarantine_readmissions = 1; }}},
      {{"skew_soft_accepts", "skew_false_rejects", "skew_false_accepts",
        "grace_accepts", "grace_engagements"},
       {[](sim::RouterOps& o) { o.skew_soft_accepts = 1; },
        [](sim::RouterOps& o) { o.skew_false_rejects = 1; },
        [](sim::RouterOps& o) { o.skew_false_accepts = 1; },
        [](sim::RouterOps& o) { o.grace_accepts = 1; },
        [](sim::RouterOps& o) { o.grace_engagements = 1; }}},
  };
  const std::vector<Set> hidden = {
      [](sim::RouterOps& o) { o.adaptive_gradient = 0.5; },
      [](sim::RouterOps& o) { o.adaptive_limit = 1; },
      [](sim::RouterOps& o) { o.lane_steals = 1; },
      [](sim::RouterOps& o) { o.compute_bf_s = 0.5; },
      [](sim::RouterOps& o) { o.compute_sig_s = 0.5; },
      [](sim::RouterOps& o) { o.compute_neg_s = 0.5; },
      [](sim::RouterOps& o) { o.validation_wait_hist.add(0.5); },
      [](sim::RouterOps& o) { o.fib_lookups = 1; },
      [](sim::RouterOps& o) { o.fib_nodes_visited = 1; },
      [](sim::RouterOps& o) { o.pit_lookups = 1; },
      [](sim::RouterOps& o) { o.pit_inserts = 1; },
      [](sim::RouterOps& o) { o.pit_expiry_polls = 1; },
      [](sim::RouterOps& o) { o.cs_evictions = 1; },
      [](sim::RouterOps& o) { o.pool_acquires = 1; },
      [](sim::RouterOps& o) { o.pool_reuses = 1; },
      [](sim::RouterOps& o) { o.pool_refills = 1; },
      [](sim::RouterOps& o) { o.packet_cow_clones = 1; },
      [](sim::RouterOps& o) { o.packet_inplace_edits = 1; },
  };

  const std::vector<std::string> base = fingerprint_lines(sim::Metrics{});
  const std::pair<std::string, sim::RouterOps sim::Metrics::*> classes[] = {
      {"edge_ops.", &sim::Metrics::edge_ops},
      {"core_ops.", &sim::Metrics::core_ops}};
  for (const auto& [prefix, ops] : classes) {
    for (const Block& block : blocks) {
      std::vector<std::string> expected;
      for (const std::string& key : block.keys) {
        expected.push_back(prefix + key);
      }
      for (std::size_t r = 0; r < block.rows.size(); ++r) {
        sim::Metrics metrics;
        block.rows[r](metrics.*ops);
        // The added lines are exactly the block, in print order, and
        // every other line is the empty-metrics fingerprint's.
        std::vector<std::string> added, rest;
        for (const std::string& line : fingerprint_lines(metrics)) {
          const std::string key = line.substr(0, line.find('='));
          if (std::find(expected.begin(), expected.end(), key) !=
              expected.end()) {
            added.push_back(key);
          } else {
            rest.push_back(line);
          }
        }
        EXPECT_EQ(added, expected) << prefix << block.keys[r];
        EXPECT_EQ(rest, base) << prefix << block.keys[r];
      }
    }
    for (std::size_t h = 0; h < hidden.size(); ++h) {
      sim::Metrics metrics;
      hidden[h](metrics.*ops);
      EXPECT_EQ(fingerprint_lines(metrics), base)
          << prefix << " hidden row #" << h;
    }
  }
  for (sim::TrafficTotals sim::Metrics::*totals :
       {&sim::Metrics::clients, &sim::Metrics::attackers}) {
    sim::Metrics metrics;
    (metrics.*totals).proactive_renewals = 1;
    EXPECT_EQ(fingerprint_lines(metrics), base);
  }
}

}  // namespace
}  // namespace tactic
