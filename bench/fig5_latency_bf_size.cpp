// Fig. 5: per-second mean content-retrieval latency over time, for three
// Bloom-filter sizes, per topology.
//
// Paper shape: bigger BFs reset less often; every reset forces a wave of
// re-validations whose (heavy-tailed) signature-verification cost bumps
// the per-second latency, so the smallest BF's latency curve rides
// highest.  Default BF sizes are scaled to our (protocol-faithful) tag
// churn so resets actually occur inside the shortened runs; --full
// restores the paper's 500/2500/10000.
//
// Exits 1 unless, on every topology, the causal chain holds as the
// filter grows: edge BF resets, core signature verifications and charged
// router compute each never rise, and each ends strictly lower at the
// largest filter than at the smallest.  Latency itself is not gated: its
// separation is below noise at default scale (EXPERIMENTS.md, known
// deviations).

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {1, 2}, 120.0);
  util::Flags flags(argc, argv);
  const std::vector<std::int64_t> bf_sizes = flags.get_int_list(
      "bf-sizes", options.full ? std::vector<std::int64_t>{500, 2500, 10000}
                               : std::vector<std::int64_t>{25, 100, 1000});
  bench::print_header(
      "Fig. 5: content retrieval latency vs time, per BF size", options);

  bench::MaybeCsv csv(options.csv_path);
  csv.row({"topology", "bf_size", "second", "mean_latency_s"});

  bench::ShapeCheck shape;
  for (const std::int64_t topo : options.topologies) {
    std::printf("Topology %lld\n", static_cast<long long>(topo));
    std::vector<double> resets, verifies, compute;
    util::Table table({"BF size", "mean latency (s)", "p95 (s)",
                       "BF resets (E/C)", "sig verifies (E/C)",
                       "router compute (s)"});
    for (const std::int64_t size : bf_sizes) {
      // Per-second series from a single representative seed; summary
      // stats over all seeds.
      sim::ScenarioConfig config =
          bench::paper_scenario(static_cast<int>(topo), options);
      config.tactic.bloom.capacity = static_cast<std::size_t>(size);
      sim::Scenario scenario(config);
      const sim::Metrics& metrics = scenario.run();

      util::SampleSet latencies;
      const auto means = metrics.latency.means();
      for (std::size_t second = 0; second < means.size(); ++second) {
        if (metrics.latency.count(second) > 0) {
          latencies.add(means[second]);
          csv.row({std::to_string(topo), std::to_string(size),
                   std::to_string(second),
                   util::CsvWriter::num(means[second])});
        }
      }
      table.add_row(
          {std::to_string(size) + " items",
           util::Table::fmt(metrics.mean_latency(), 4),
           util::Table::fmt(latencies.percentile(95), 4),
           util::Table::fmt(metrics.edge_ops.bf_resets) + " / " +
               util::Table::fmt(metrics.core_ops.bf_resets),
           util::Table::fmt(metrics.edge_ops.sig_verifications) + " / " +
               util::Table::fmt(metrics.core_ops.sig_verifications),
           util::Table::fmt(metrics.edge_ops.compute_charged_s +
                                metrics.core_ops.compute_charged_s,
                            4)});
      resets.push_back(static_cast<double>(metrics.edge_ops.bf_resets));
      verifies.push_back(
          static_cast<double>(metrics.core_ops.sig_verifications));
      compute.push_back(metrics.edge_ops.compute_charged_s +
                        metrics.core_ops.compute_charged_s);
    }
    table.print(std::cout);
    std::printf("\n");
    const std::string where =
        "Topology " + std::to_string(topo) + ": a larger BF never raises ";
    shape.check(bench::falls_overall(resets),
                where + "edge BF resets, and the largest lowers them");
    shape.check(bench::falls_overall(verifies),
                where + "core verifications, and the largest lowers them");
    shape.check(bench::falls_overall(compute),
                where + "router compute, and the largest lowers it");
  }
  std::printf(
      "paper shape: larger BF -> fewer resets -> fewer re-validations -> "
      "lower latency curve\n");
  return shape.exit_code();
}
