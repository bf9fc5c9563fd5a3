// Tests for the sim metrics layer: traffic totals, router-op aggregation,
// the multi-seed accumulator, the compute-charge bookkeeping that feeds
// Fig. 5's analysis, and the client sample series (each sample lands
// once; harvest() is idempotent and incremental).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "testing/invariants.hpp"
#include "util/timeseries.hpp"

namespace tactic::sim {
namespace {

TEST(TrafficTotals, DeliveryRatio) {
  TrafficTotals totals;
  EXPECT_EQ(totals.delivery_ratio(), 0.0);  // no requests -> 0, not NaN
  totals.requested = 200;
  totals.received = 150;
  EXPECT_DOUBLE_EQ(totals.delivery_ratio(), 0.75);
}

TEST(TrafficTotals, Accumulation) {
  TrafficTotals a, b;
  a.requested = 10;
  a.received = 9;
  a.tags_requested = 2;
  b.requested = 5;
  b.received = 5;
  b.nacks = 1;
  a += b;
  EXPECT_EQ(a.requested, 15u);
  EXPECT_EQ(a.received, 14u);
  EXPECT_EQ(a.nacks, 1u);
  EXPECT_EQ(a.tags_requested, 2u);
}

void fill(std::uint64_t& value, int seed) {
  value = 1000 + 7 * static_cast<std::uint64_t>(seed);
}
void fill(double& value, int seed) { value = 0.5 + 0.125 * seed; }
void fill(util::QuantileHistogram& hist, int seed) {
  for (int i = 0; i <= seed % 3; ++i) hist.add(0.001 * (seed + i));
}

void expect_merged(const char* row, std::uint64_t got, std::uint64_t left,
                   std::uint64_t right, Merge how) {
  EXPECT_EQ(got, how == Merge::kMax ? std::max(left, right) : left + right)
      << row;
}
void expect_merged(const char* row, double got, double left, double right,
                   Merge how) {
  EXPECT_EQ(got, how == Merge::kMax ? std::max(left, right) : left + right)
      << row;
}
void expect_merged(const char* row, const util::QuantileHistogram& got,
                   const util::QuantileHistogram& left,
                   const util::QuantileHistogram& right, Merge how) {
  EXPECT_EQ(how, Merge::kBuckets) << row;
  EXPECT_EQ(got.count(), left.count() + right.count()) << row;
  EXPECT_DOUBLE_EQ(got.sum(), left.sum() + right.sum()) << row;
}

TEST(RouterOps, AccumulationIncludesCompute) {
  RouterOps a, b;
  a.bf_lookups = 100;
  a.compute_charged_s = 0.5;
  b.bf_lookups = 50;
  b.sig_verifications = 3;
  b.compute_charged_s = 0.25;
  a += b;
  EXPECT_EQ(a.bf_lookups, 150u);
  EXPECT_EQ(a.sig_verifications, 3u);
  EXPECT_DOUBLE_EQ(a.compute_charged_s, 0.75);

  // Every row of the stats table, filled with distinct values on both
  // sides, merges as its row says, in either order.  Odd rows hold the
  // larger value on the left, so a max row cannot pass by keeping one
  // side.
  RouterOps left, right;
  int row = 0;
#define ROUTER_STAT(name, type, merge, print, layer) \
  fill(left.name, 2 * row + row % 2);                \
  fill(right.name, 2 * row + 1 - row % 2);           \
  ++row;
#include "tactic/router_stats.def"
  RouterOps left_right = left;
  left_right += right;
  RouterOps right_left = right;
  right_left += left;
  std::set<std::string> max_rows, bucket_rows;
#define ROUTER_STAT(name, type, merge, print, layer)                          \
  expect_merged(#name, left_right.name, left.name, right.name, Merge::merge); \
  expect_merged(#name, right_left.name, left.name, right.name, Merge::merge); \
  if (Merge::merge == Merge::kMax) max_rows.insert(#name);                    \
  if (Merge::merge == Merge::kBuckets) bucket_rows.insert(#name);
#include "tactic/router_stats.def"
  EXPECT_EQ(max_rows, (std::set<std::string>{"adaptive_gradient",
                                             "adaptive_limit",
                                             "sig_batch_peak"}));
  EXPECT_EQ(bucket_rows, std::set<std::string>{"validation_wait_hist"});
}

TEST(Metrics, MeanRequestsPerReset) {
  EXPECT_EQ(Metrics::mean_requests_per_reset({}), 0.0);
  EXPECT_DOUBLE_EQ(Metrics::mean_requests_per_reset({100, 200, 300}),
                   200.0);
}

TEST(Metrics, CacheHitRatioHandlesZero) {
  Metrics metrics;
  EXPECT_EQ(metrics.cache_hit_ratio(), 0.0);
  metrics.cs_hits = 1;
  metrics.cs_misses = 3;
  EXPECT_DOUBLE_EQ(metrics.cache_hit_ratio(), 0.25);
}

TEST(MetricsAccumulator, AveragesAcrossRuns) {
  Metrics run1, run2;
  run1.clients.requested = 100;
  run1.clients.received = 100;
  run2.clients.requested = 200;
  run2.clients.received = 100;
  run1.edge_ops.bf_lookups = 10;
  run2.edge_ops.bf_lookups = 30;
  MetricsAccumulator acc;
  acc.add(run1);
  acc.add(run2);
  EXPECT_EQ(acc.runs, 2u);
  EXPECT_DOUBLE_EQ(acc.client_requested.mean(), 150.0);
  EXPECT_DOUBLE_EQ(acc.client_delivery.mean(), 0.75);  // (1.0 + 0.5)/2
  EXPECT_DOUBLE_EQ(acc.edge.bf_lookups.mean(), 20.0);
}

// ---------------------------------------------------------------------------
// Compute-charge accounting against a live run
// ---------------------------------------------------------------------------

ScenarioConfig small_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.topology.core_routers = 8;
  config.topology.edge_routers = 3;
  config.topology.providers = 2;
  config.topology.clients = 4;
  config.topology.attackers = 2;
  config.provider.key_bits = 512;
  config.provider.catalog.objects = 10;
  config.provider.catalog.chunks_per_object = 5;
  config.client.think_time_mean = 20 * event::kMillisecond;
  config.duration = 20 * event::kSecond;
  config.seed = seed;
  return config;
}

TEST(ComputeCharge, ZeroModelChargesNothing) {
  ScenarioConfig config = small_config(81);
  config.compute = core::ComputeModel::zero();
  Scenario scenario(config);
  const Metrics& metrics = scenario.run();
  EXPECT_EQ(metrics.edge_ops.compute_charged_s, 0.0);
  EXPECT_EQ(metrics.core_ops.compute_charged_s, 0.0);
  EXPECT_GT(metrics.edge_ops.bf_lookups, 0u);  // ops still happened
}

TEST(ComputeCharge, DeterministicModelMatchesOpCounts) {
  ScenarioConfig config = small_config(82);
  config.compute = core::ComputeModel::deterministic();
  Scenario scenario(config);
  const Metrics& metrics = scenario.run();
  // With the deterministic model every op charges exactly its mean, so
  // total charge is a linear combination of the op counts.
  const double expected_edge =
      9.14e-7 * static_cast<double>(metrics.edge_ops.bf_lookups) +
      3.35e-7 * static_cast<double>(metrics.edge_ops.bf_insertions) +
      1.12e-5 * static_cast<double>(metrics.edge_ops.sig_verifications);
  EXPECT_NEAR(metrics.edge_ops.compute_charged_s, expected_edge,
              expected_edge * 0.01 + 1e-6);
}

TEST(ComputeCharge, PaperModelChargesMoreThanDeterministic) {
  // The paper's printed sigmas create a heavy non-negative tail, so the
  // charged total exceeds the mean-only model on the same op volume.
  ScenarioConfig deterministic = small_config(83);
  deterministic.compute = core::ComputeModel::deterministic();
  ScenarioConfig paper = small_config(83);
  paper.compute = core::ComputeModel::paper_defaults();
  const Metrics det = Scenario(deterministic).run();
  const Metrics pap = Scenario(paper).run();
  EXPECT_GT(pap.edge_ops.compute_charged_s + pap.core_ops.compute_charged_s,
            det.edge_ops.compute_charged_s + det.core_ops.compute_charged_s);
}

TEST(PacketTrace, RecordsFilteredRows) {
  const std::string path = ::testing::TempDir() + "/tactic_trace_test.csv";
  ScenarioConfig config = small_config(85);
  config.duration = 5 * event::kSecond;
  Scenario scenario(config);
  {
    PacketTrace trace(path);
    trace.set_name_filter(ndn::Name("/provider0"));
    trace.attach(scenario.network());
    scenario.run();
    EXPECT_GT(trace.rows_written(), 100u);
  }
  std::ifstream in(path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("time_s"), std::string::npos);
  EXPECT_NE(header.find("flag_f"), std::string::npos);
  std::size_t rows = 0;
  while (std::getline(in, row)) {
    ++rows;
    // The filter held: every traced name is under /provider0.
    EXPECT_NE(row.find("/provider0"), std::string::npos) << row;
  }
  EXPECT_GT(rows, 100u);
  std::remove(path.c_str());
}

TEST(PacketTrace, SingleNodeAttachment) {
  const std::string path = ::testing::TempDir() + "/tactic_trace_one.csv";
  ScenarioConfig config = small_config(86);
  config.duration = 5 * event::kSecond;
  Scenario scenario(config);
  {
    PacketTrace trace(path);
    const net::NodeId edge = scenario.network().edge_routers()[0];
    trace.attach(scenario.network().node(edge));
    scenario.run();
    // Only one node traced; far fewer rows than a full-network trace,
    // and every row names that node.
    EXPECT_GT(trace.rows_written(), 0u);
  }
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  while (std::getline(in, row)) {
    EXPECT_NE(row.find("edge"), std::string::npos) << row;
  }
  std::remove(path.c_str());
}

TEST(PacketTrace, RunsBesideAnArmedInvariantChecker) {
  // Attaching a trace adds its tracer next to the checker's rather than
  // replacing it: both observe the packet stream.
  const std::string path = ::testing::TempDir() + "/tactic_trace_checked.csv";
  ScenarioConfig config = small_config(87);
  config.duration = 5 * event::kSecond;
  Scenario scenario(config);
  testing::InvariantChecker checker(scenario);
  PacketTrace trace(path);
  checker.arm();
  trace.attach(scenario.network());
  scenario.run();
  checker.finalize();
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.packets_observed(), 100u);
  EXPECT_GT(trace.rows_written(), 100u);
  std::remove(path.c_str());
}

TEST(Metrics, LatencySeriesCoversRun) {
  ScenarioConfig config = small_config(84);
  Scenario scenario(config);
  const Metrics& metrics = scenario.run();
  // Samples in (almost) every second of the 20 s run.
  std::size_t busy_seconds = 0;
  for (std::size_t s = 0; s < metrics.latency.bucket_count(); ++s) {
    busy_seconds += metrics.latency.count(s) > 0;
  }
  EXPECT_GE(busy_seconds, 18u);
  EXPECT_LE(metrics.latency.bucket_count(), 21u);
}

void expect_same_series(const util::TimeSeries& a, const util::TimeSeries& b,
                        const char* series) {
  ASSERT_EQ(a.bucket_count(), b.bucket_count()) << series;
  for (std::size_t s = 0; s < a.bucket_count(); ++s) {
    EXPECT_EQ(a.count(s), b.count(s)) << series << " bucket " << s;
    EXPECT_EQ(a.sum(s), b.sum(s)) << series << " bucket " << s;
  }
}

void expect_one_sample_per_event(const Metrics& metrics) {
  EXPECT_EQ(metrics.latency.total_count(), metrics.clients.received);
  EXPECT_EQ(metrics.tag_requests.total_count(),
            metrics.clients.tags_requested);
  EXPECT_EQ(metrics.tag_receives.total_count(),
            metrics.clients.tags_received);
}

// Each client sample lands in its series exactly once.  harvest() is
// idempotent (a second call returns equal series) and incremental
// (samples from the drain grace extend the series without recounting
// earlier ones).
TEST(Metrics, EachClientSampleLandsOnce) {
  Scenario scenario(small_config(87));
  const Metrics ran = scenario.run();
  EXPECT_GT(ran.clients.received, 0u);
  EXPECT_GT(ran.clients.tags_received, 0u);
  expect_one_sample_per_event(ran);

  const Metrics again = scenario.harvest();
  expect_same_series(ran.latency, again.latency, "latency");
  expect_same_series(ran.recovery_latency, again.recovery_latency,
                     "recovery_latency");
  expect_same_series(ran.tag_requests, again.tag_requests, "tag_requests");
  expect_same_series(ran.tag_receives, again.tag_receives, "tag_receives");

  scenario.drain();
  const Metrics drained = scenario.harvest();
  EXPECT_GT(drained.clients.received, ran.clients.received);
  expect_one_sample_per_event(drained);
}

}  // namespace
}  // namespace tactic::sim
