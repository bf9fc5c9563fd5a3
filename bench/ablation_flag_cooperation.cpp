// Ablation: the flag-F router cooperation of Protocols 2-3.
//
// With cooperation on, an edge router that has already validated a tag
// vouches for it (F = edge FPP) and upstream routers mostly skip
// re-validation; with cooperation off, every content router treats every
// tag as unvouched.  The design claim (Section 4.B: "eliminate redundant
// tag validations and reduce the cost of signature verification") is
// quantified here as the change in core/provider verification counts.
// Exits 1 unless turning cooperation off raises both.

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {1}, 90.0);
  bench::print_header("Ablation: flag-F cooperation on vs off", options);

  util::Table table({"Cooperation", "Core verifies", "Provider verifies",
                     "Core BF lookups", "Mean latency (s)", "Client rate"});
  bench::MaybeCsv csv(options.csv_path);
  csv.row({"cooperation", "core_verifies", "provider_verifies",
           "core_bf_lookups", "mean_latency", "client_rate"});

  std::vector<double> core_verifies, provider_verifies;  // on, then off
  for (const bool cooperation : {true, false}) {
    const auto acc = bench::run_seeds(
        options, static_cast<int>(options.topologies.front()),
        [&](sim::ScenarioConfig& config) {
          config.tactic.flag_cooperation = cooperation;
        });
    table.add_row({cooperation ? "on (paper)" : "off (ablated)",
                   util::Table::fmt(acc.core.sig_verifications.mean(), 8),
                   util::Table::fmt(acc.provider_verifies.mean(), 8),
                   util::Table::fmt(acc.core.bf_lookups.mean(), 8),
                   util::Table::fmt(acc.mean_latency.mean(), 5),
                   util::Table::fmt_ratio(acc.client_delivery.mean())});
    core_verifies.push_back(acc.core.sig_verifications.mean());
    provider_verifies.push_back(acc.provider_verifies.mean());
    csv.row({cooperation ? "on" : "off",
             util::CsvWriter::num(acc.core.sig_verifications.mean()),
             util::CsvWriter::num(acc.provider_verifies.mean()),
             util::CsvWriter::num(acc.core.bf_lookups.mean()),
             util::CsvWriter::num(acc.mean_latency.mean()),
             util::CsvWriter::num(acc.client_delivery.mean())});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected: cooperation off multiplies upstream verification work "
      "while delivery stays intact\n");
  bench::ShapeCheck shape;
  shape.check(core_verifies[1] > core_verifies[0],
              "cooperation off raises core verifications");
  shape.check(provider_verifies[1] > provider_verifies[0],
              "cooperation off raises provider verifications");
  return shape.exit_code();
}
