// Table IV: clients' and attackers' successful delivery ratio across the
// four Table III topologies.
//
// Paper values (2000 s, 5 seeds): clients 0.9997-0.9999, attackers
// 0.0000-0.0078 (the handful of attacker successes come from edge-BF
// false positives on forged tags).  Exits 1 unless every topology's
// client rate is >= 0.999 and its attacker rate <= 0.0078.

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {1, 2, 3, 4}, 60.0);
  bench::print_header(
      "Table IV: clients vs attackers successful delivery ratio", options);

  bench::ShapeCheck shape;
  util::Table table({"Topology", "Client Req.", "Client Recv.",
                     "Client Rate", "Attacker Req.", "Attacker Recv.",
                     "Attacker Rate"});
  bench::MaybeCsv csv(options.csv_path);
  csv.row({"topology", "client_requested", "client_received",
           "client_rate", "attacker_requested", "attacker_received",
           "attacker_rate"});

  for (const std::int64_t topo : options.topologies) {
    const auto acc = bench::run_seeds(
        options, static_cast<int>(topo), [&](sim::ScenarioConfig& config) {
          // Denser attacker probing than the paper's 2000 s pace, so the
          // shortened default runs still accumulate attack samples.
          if (!options.full) {
            config.attacker.think_time_mean = 2 * event::kSecond;
          }
        });
    const std::string label = "Topo. " + std::to_string(topo);
    shape.check(acc.client_delivery.mean() >= 0.999,
                label + ": client rate >= 0.999");
    shape.check(acc.attacker_delivery.mean() <= 0.0078,
                label + ": attacker rate <= 0.0078");
    table.add_row({label,
                   util::Table::fmt(acc.client_requested.mean(), 10),
                   util::Table::fmt(acc.client_received.mean(), 10),
                   util::Table::fmt_ratio(acc.client_delivery.mean()),
                   util::Table::fmt(acc.attacker_requested.mean(), 10),
                   util::Table::fmt(acc.attacker_received.mean(), 10),
                   util::Table::fmt_ratio(acc.attacker_delivery.mean())});
    csv.row({std::to_string(topo),
             util::CsvWriter::num(acc.client_requested.mean()),
             util::CsvWriter::num(acc.client_received.mean()),
             util::CsvWriter::num(acc.client_delivery.mean()),
             util::CsvWriter::num(acc.attacker_requested.mean()),
             util::CsvWriter::num(acc.attacker_received.mean()),
             util::CsvWriter::num(acc.attacker_delivery.mean())});
  }
  table.print(std::cout);
  std::printf(
      "\npaper: client rate 0.9997-0.9999, attacker rate 0.0000-0.0078\n");
  return shape.exit_code();
}
