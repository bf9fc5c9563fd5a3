// Ablation: access-path authentication (the paper's future-work feature,
// implemented here).
//
// Threat (e): a legitimate client shares its valid, unexpired tag with an
// attacker behind a different access point.  Without the access-path
// check nothing distinguishes the two requesters, and the shared tag
// retrieves content.  With the check on, the edge router compares the
// access path signed into the tag with the one the request accumulated
// and NACKs the mismatch.  Exits 1 unless the shared-tag attackers get 0
// chunks with enforcement on and more than 0 with it off.

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {1}, 90.0);
  bench::print_header(
      "Ablation: access-path enforcement vs tag-sharing attackers",
      options);

  util::Table table({"Access path", "Attacker chunks", "Attacker rate",
                     "Attacker NACKs", "Client rate"});
  bench::MaybeCsv csv(options.csv_path);
  csv.row({"access_path", "attacker_chunks", "attacker_rate",
           "client_rate"});

  bench::ShapeCheck shape;
  for (const bool enforce : {false, true}) {
    const auto acc = bench::run_seeds(
        options, static_cast<int>(options.topologies.front()),
        [&](sim::ScenarioConfig& config) {
          config.tactic.enforce_access_path = enforce;
          config.attacker_mix = {workload::AttackerMode::kSharedTag};
          config.attacker.think_time_mean = 2 * event::kSecond;
        });
    table.add_row({enforce ? "enforced (our extension)"
                           : "off (paper simulation)",
                   util::Table::fmt(acc.attacker_received.mean(), 8),
                   util::Table::fmt_ratio(acc.attacker_delivery.mean()),
                   util::Table::fmt(acc.attacker_nacks.mean(), 8),
                   util::Table::fmt_ratio(acc.client_delivery.mean())});
    if (enforce) {
      shape.check(acc.attacker_received.mean() == 0,
                  "enforcement on: shared-tag attackers get 0 chunks");
    } else {
      shape.check(acc.attacker_received.mean() > 0,
                  "enforcement off: shared tags retrieve content");
    }
    csv.row({enforce ? "on" : "off",
             util::CsvWriter::num(acc.attacker_received.mean()),
             util::CsvWriter::num(acc.attacker_delivery.mean()),
             util::CsvWriter::num(acc.client_delivery.mean())});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected: shared tags succeed freely with the feature off and "
      "are NACKed at the edge with it on, at no cost to legitimate "
      "clients\n");
  return shape.exit_code();
}
