// Fig. 8: number of requests a router receives before its Bloom filter
// saturates and resets, swept over the maximum-FPP threshold (1e-4 vs
// 1e-2) and the tag expiry period (10/100/1000 s), on Topology 1, for
// edge and core routers.
//
// Paper shape: raising the FPP threshold from 1e-4 to 1e-2 multiplies the
// requests-per-reset severalfold (the same bit array may fill further
// before tripping); the tag-expiry period barely moves the edge numbers.
// Deviation note (EXPERIMENTS.md): in our protocol-faithful
// implementation insertions are driven by tag churn, so very long expiry
// periods can starve the filter of insertions entirely (no resets).
// Exits 1 unless, at tag expiry 10 s and 100 s, the largest listed FPP
// gives at least 2x the edge requests per reset of the smallest.

#include <algorithm>

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {1}, 240.0);
  util::Flags flags(argc, argv);
  const std::vector<double> fpps =
      flags.get_double_list("fpp", {1e-4, 1e-2});
  const std::vector<std::int64_t> expiries =
      flags.get_int_list("expiry", {10, 100, 1000});
  const std::int64_t capacity =
      flags.get_int("bf-size", options.full ? 500 : 30);
  bench::print_header(
      "Fig. 8: # requests before a BF reset vs max FPP and tag expiry "
      "(Topology 1)",
      options);

  bench::MaybeCsv csv(options.csv_path);
  csv.row({"max_fpp", "tag_expiry_s", "edge_req_per_reset",
           "edge_resets", "core_req_per_reset", "core_resets"});

  util::Table table({"max FPP", "tag expiry", "edge req/reset",
                     "edge resets", "core req/reset", "core resets"});
  // edge_reqs[f * expiries.size() + e] for fpps[f] and expiries[e].
  std::vector<double> edge_reqs;
  for (const double fpp : fpps) {
    for (const std::int64_t expiry : expiries) {
      const auto acc = bench::run_seeds(
          options, static_cast<int>(options.topologies.front()),
          [&](sim::ScenarioConfig& config) {
            config.tactic.bloom.capacity =
                static_cast<std::size_t>(capacity);
            config.tactic.bloom.max_fpp = fpp;
            config.tactic.bloom.design_fpp = 1e-4;  // fixed bit sizing
            config.provider.tag_validity = expiry * event::kSecond;
          });
      edge_reqs.push_back(acc.edge_reqs_per_reset.mean());
      table.add_row({util::Table::fmt(fpp, 2),
                     std::to_string(expiry) + " s",
                     util::Table::fmt(acc.edge_reqs_per_reset.mean(), 6),
                     util::Table::fmt(acc.edge.bf_resets.mean(), 6),
                     util::Table::fmt(acc.core_reqs_per_reset.mean(), 6),
                     util::Table::fmt(acc.core.bf_resets.mean(), 6)});
      csv.row({util::CsvWriter::num(fpp), std::to_string(expiry),
               util::CsvWriter::num(acc.edge_reqs_per_reset.mean()),
               util::CsvWriter::num(acc.edge.bf_resets.mean()),
               util::CsvWriter::num(acc.core_reqs_per_reset.mean()),
               util::CsvWriter::num(acc.core.bf_resets.mean())});
    }
  }
  table.print(std::cout);

  bench::ShapeCheck shape;
  const auto low = static_cast<std::size_t>(
      std::min_element(fpps.begin(), fpps.end()) - fpps.begin());
  const auto high = static_cast<std::size_t>(
      std::max_element(fpps.begin(), fpps.end()) - fpps.begin());
  for (std::size_t e = 0; e < expiries.size() && low != high; ++e) {
    if (expiries[e] != 10 && expiries[e] != 100) continue;
    const std::size_t n = expiries.size();
    shape.check(edge_reqs[high * n + e] >= 2 * edge_reqs[low * n + e],
                "tag expiry " + std::to_string(expiries[e]) + " s: FPP " +
                    util::Table::fmt(fpps[high], 2) +
                    " gives >= 2x the edge requests per reset of FPP " +
                    util::Table::fmt(fpps[low], 2));
  }
  std::printf(
      "\npaper shape: FPP 1e-2 needs severalfold more requests per reset "
      "than 1e-4 at fixed size\n");
  return shape.exit_code();
}
