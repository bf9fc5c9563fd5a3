// Table V: number of BF resets for two filter sizes x two max-FPP values
// with a 10 s tag expiry (Topology 1), plus the improvement from growing
// the filter.
//
// Paper (2000 s): edge resets 20840 -> 1233 (94%) and 9354 -> 609 (93%)
// when the BF grows 10x; core resets nearly vanish.  Our
// protocol-faithful insertion volume is lower (see EXPERIMENTS.md), so
// the default sizes are scaled to keep resets observable; the directional
// claim — a larger BF eliminates nearly all resets — is what this harness
// regenerates.  Exits 1 unless every edge row whose smaller filter reset
// at least once shows >= 90% fewer resets with the larger filter.

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {1}, 240.0);
  util::Flags flags(argc, argv);
  const std::vector<std::int64_t> sizes = flags.get_int_list(
      "bf-sizes", options.full ? std::vector<std::int64_t>{500, 5000}
                               : std::vector<std::int64_t>{25, 250});
  const std::vector<double> fpps =
      flags.get_double_list("fpp", {1e-4, 1e-2});
  bench::print_header(
      "Table V: # of BF resets by size and max FPP (10 s tag expiry)",
      options);

  bench::MaybeCsv csv(options.csv_path);
  csv.row({"bf_size", "max_fpp", "edge_resets", "core_resets"});

  struct Cell {
    double edge = 0;
    double core = 0;
  };
  std::vector<std::vector<Cell>> grid(sizes.size(),
                                      std::vector<Cell>(fpps.size()));

  for (std::size_t s = 0; s < sizes.size(); ++s) {
    for (std::size_t f = 0; f < fpps.size(); ++f) {
      const auto acc = bench::run_seeds(
          options, static_cast<int>(options.topologies.front()),
          [&](sim::ScenarioConfig& config) {
            config.tactic.bloom.capacity =
                static_cast<std::size_t>(sizes[s]);
            config.tactic.bloom.max_fpp = fpps[f];
            config.tactic.bloom.design_fpp = 1e-4;
            config.provider.tag_validity = 10 * event::kSecond;
          });
      grid[s][f] = Cell{acc.edge.bf_resets.mean(), acc.core.bf_resets.mean()};
      csv.row({std::to_string(sizes[s]), util::CsvWriter::num(fpps[f]),
               util::CsvWriter::num(acc.edge.bf_resets.mean()),
               util::CsvWriter::num(acc.core.bf_resets.mean())});
    }
  }

  util::Table table({"Router class / max FPP",
                     std::to_string(sizes.front()) + " items",
                     std::to_string(sizes.back()) + " items",
                     "Improvement"});
  auto improvement = [](double small, double large) {
    if (small <= 0) return std::string("n/a");
    return util::Table::fmt_percent(100.0 * (small - large) / small);
  };
  bench::ShapeCheck shape;
  for (std::size_t f = 0; f < fpps.size(); ++f) {
    const double small = grid.front()[f].edge;
    const double large = grid.back()[f].edge;
    if (small >= 1) {
      shape.check(large <= 0.1 * small,
                  "edge @ " + util::Table::fmt(fpps[f], 2) +
                      ": the larger BF removes >= 90% of resets");
    }
    table.add_row({"Edge @ " + util::Table::fmt(fpps[f], 2),
                   util::Table::fmt(small, 6), util::Table::fmt(large, 6),
                   improvement(small, large)});
  }
  for (std::size_t f = 0; f < fpps.size(); ++f) {
    table.add_row({"Core @ " + util::Table::fmt(fpps[f], 2),
                   util::Table::fmt(grid.front()[f].core, 6),
                   util::Table::fmt(grid.back()[f].core, 6),
                   improvement(grid.front()[f].core, grid.back()[f].core)});
  }
  table.print(std::cout);
  std::printf(
      "\npaper: growing the BF 10x removes ~93-94%% of edge resets and "
      "~99%% of core resets\n");
  return shape.exit_code();
}
