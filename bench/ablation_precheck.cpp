// Ablation: Protocol 1's low-cost pre-check.
//
// The pre-check rejects structurally invalid tags (wrong provider prefix,
// expired, insufficient AL, key mismatch) before any Bloom-filter or
// signature work.  Ablating it shows two effects the paper's design
// prevents: (1) expired/misdirected requests burn signature verifications
// deeper in the network, and (2) an *expired but genuinely signed* tag
// sails through signature verification — expiry-based revocation breaks.
// Exits 1 unless expired tags fetch 0 chunks with the pre-check on and
// more than 0 with it off.

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {1}, 90.0);
  bench::print_header("Ablation: Protocol 1 pre-check on vs off", options);

  util::Table table({"Pre-check", "Attacker chunks", "Attacker rate",
                     "Router verifies", "Provider verifies", "Client rate"});
  bench::MaybeCsv csv(options.csv_path);
  csv.row({"precheck", "attacker_chunks", "attacker_rate",
           "router_verifies", "provider_verifies", "client_rate"});

  bench::ShapeCheck shape;
  for (const bool precheck : {true, false}) {
    const auto acc = bench::run_seeds(
        options, static_cast<int>(options.topologies.front()),
        [&](sim::ScenarioConfig& config) {
          config.tactic.precheck = precheck;
          // Expired-tag attackers isolate the revocation effect; denser
          // probing for the short default runs.
          config.attacker_mix = {workload::AttackerMode::kExpiredTag,
                                 workload::AttackerMode::kWrongProvider};
          config.attacker.think_time_mean = 2 * event::kSecond;
        });
    const double router_verifies =
        acc.edge.sig_verifications.mean() + acc.core.sig_verifications.mean();
    table.add_row({precheck ? "on (paper)" : "off (ablated)",
                   util::Table::fmt(acc.attacker_received.mean(), 8),
                   util::Table::fmt_ratio(acc.attacker_delivery.mean()),
                   util::Table::fmt(router_verifies, 8),
                   util::Table::fmt(acc.provider_verifies.mean(), 8),
                   util::Table::fmt_ratio(acc.client_delivery.mean())});
    if (precheck) {
      shape.check(acc.attacker_received.mean() == 0,
                  "pre-check on: expired tags fetch 0 chunks");
    } else {
      shape.check(acc.attacker_received.mean() > 0,
                  "pre-check off: expired tags fetch content");
    }
    csv.row({precheck ? "on" : "off",
             util::CsvWriter::num(acc.attacker_received.mean()),
             util::CsvWriter::num(acc.attacker_delivery.mean()),
             util::CsvWriter::num(router_verifies),
             util::CsvWriter::num(acc.provider_verifies.mean()),
             util::CsvWriter::num(acc.client_delivery.mean())});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected: without the pre-check, expired (revoked) tags with "
      "genuine signatures retrieve content and invalid traffic consumes "
      "crypto budget upstream\n");
  return shape.exit_code();
}
