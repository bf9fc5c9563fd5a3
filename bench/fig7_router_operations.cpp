// Fig. 7: total Bloom-filter look ups (L), insertions (I), and signature
// verifications (V) at (a) edge routers and (b) core routers, per
// topology (log scale in the paper).
//
// Paper shape: at the edge, L >> I >> V (lookups per request, insertions
// per fresh/vouched tag, verifications only for unvouched aggregates and
// after resets); core routers do orders of magnitude less than edge
// routers thanks to request aggregation and flag-F cooperation.  Exits 1
// unless, at every topology, edge L >= 10 x edge I and core L <= edge L / 10.

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {1, 2, 3, 4}, 60.0);
  util::Flags flags(argc, argv);
  // Scaled-down BF so resets (and hence the verification component the
  // paper's Fig. 7 shows) occur within the shortened default runs.
  const std::int64_t bf_capacity =
      flags.get_int("bf-size", options.full ? 500 : 50);
  bench::print_header(
      "Fig. 7: BF lookups (L), insertions (I), verifications (V) by "
      "router class",
      options);

  // One CSV column per statistic of the router stats table
  // (tactic/router_stats.def), under its table name.
  bench::MaybeCsv csv(options.csv_path);
  std::vector<std::string> header = {"topology", "router_class"};
  sim::RouterOpsStats{}.for_each(
      [&](const char* name, const util::RunningStats&) {
        header.push_back(name);
      });
  csv.row(header);

  bench::ShapeCheck shape;
  util::Table table({"Topology", "Class", "L (lookups)", "I (insertions)",
                     "V (verifications)"});
  // Zero-copy packet path (docs/ARCHITECTURE.md, "Packet memory model"):
  // router-side packet mutations split into in-place edits (sole owner,
  // no copy) and COW clones (aliased packet, one copy).  Before shared
  // forwarding, every mutation implied a full packet copy, so the
  // in-place share is the measured copy-elimination delta.
  util::Table pool_table({"Topology", "Slab acquires", "Recycled %",
                          "COW clones", "In-place edits",
                          "Copies eliminated %"});
  for (const std::int64_t topo : options.topologies) {
    const auto acc = bench::run_seeds(
        options, static_cast<int>(topo), [&](sim::ScenarioConfig& config) {
          config.tactic.bloom.capacity =
              static_cast<std::size_t>(bf_capacity);
        });
    const std::string label = "Topo. " + std::to_string(topo);
    const double reuses = acc.routers.pool_reuses.mean();
    const double clones = acc.routers.packet_cow_clones.mean();
    const double inplace = acc.routers.packet_inplace_edits.mean();
    // Fresh builds net out clone compensation (PoolCounters), so total
    // slab acquisitions = fresh acquires + COW clones.
    const double slab = acc.routers.pool_acquires.mean() + clones;
    const double edits = clones + inplace;
    pool_table.add_row(
        {label, util::Table::fmt(slab, 10),
         util::Table::fmt(slab == 0 ? 0.0 : 100.0 * reuses / slab, 4),
         util::Table::fmt(clones, 10), util::Table::fmt(inplace, 10),
         util::Table::fmt(edits == 0 ? 0.0 : 100.0 * inplace / edits, 4)});
    const double edge_l = acc.edge.bf_lookups.mean();
    shape.check(edge_l >= 10 * acc.edge.bf_insertions.mean(),
                label + ": edge L >= 10 x edge I");
    shape.check(acc.core.bf_lookups.mean() <= edge_l / 10,
                label + ": core L <= edge L / 10");
    table.add_row({label, "edge", util::Table::fmt(edge_l, 10),
                   util::Table::fmt(acc.edge.bf_insertions.mean(), 10),
                   util::Table::fmt(acc.edge.sig_verifications.mean(), 10)});
    table.add_row({"", "core",
                   util::Table::fmt(acc.core.bf_lookups.mean(), 10),
                   util::Table::fmt(acc.core.bf_insertions.mean(), 10),
                   util::Table::fmt(acc.core.sig_verifications.mean(), 10)});
    for (const auto& [router_class, stats] :
         {std::pair{"edge", &acc.edge}, std::pair{"core", &acc.core}}) {
      std::vector<std::string> row = {std::to_string(topo), router_class};
      stats->for_each([&](const char*, const util::RunningStats& stat) {
        row.push_back(util::CsvWriter::num(stat.mean()));
      });
      csv.row(row);
    }
  }
  table.print(std::cout);
  std::printf(
      "\npaper shape: edge L ~1e6 >> I >> V (log scale); core workload "
      "1-2 orders of magnitude below edge\n");
  std::printf("\npacket memory (routers, edge + core):\n");
  pool_table.print(std::cout);
  return shape.exit_code();
}
