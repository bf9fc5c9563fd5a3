// Ablation: the revocation latency / refresh overhead trade-off.
//
// TACTIC's revocation is "tunable time-based" (Table II): a provider just
// refuses the next tag refresh, and the revoked client's access dies with
// its current tag — at most one validity period later.  Shorter validity
// means faster revocation but more registration traffic (Section 8's
// discussion of Fig. 6).  This harness revokes a third of the clients
// mid-run for a sweep of validity periods and measures both sides of the
// trade-off.  Exits 1 unless, across the listed validities, revocation
// latency strictly rises and tag requests per second strictly fall.

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {1}, 120.0);
  util::Flags flags(argc, argv);
  const std::vector<std::int64_t> validities =
      flags.get_int_list("expiry", {5, 10, 30, 60});
  bench::print_header(
      "Ablation: revocation latency vs tag-refresh overhead", options);

  util::Table table({"Tag validity", "Revocation latency (s)",
                     "Tag requests/s (all clients)",
                     "Revoked client chunks after cut"});
  bench::MaybeCsv csv(options.csv_path);
  csv.row({"validity_s", "revocation_latency_s", "tag_requests_per_s",
           "chunks_after_cut"});

  std::vector<double> latencies, tag_rates;
  for (const std::int64_t validity : validities) {
    sim::ScenarioConfig config = bench::paper_scenario(
        static_cast<int>(options.topologies.front()), options);
    config.provider.tag_validity = validity * event::kSecond;
    sim::Scenario scenario(config);

    // Revoke a third of the clients; the residual access of each is the
    // remaining lifetime of its current tag, so averaging across victims
    // estimates the expected revocation latency (~validity/2).
    const std::size_t victim_count = scenario.clients().size() / 3;
    const event::Time revoke_at = config.duration / 2;
    std::vector<event::Time> last_delivery(victim_count, 0);
    std::uint64_t chunks_after_cut = 0;
    for (std::size_t v = 0; v < victim_count; ++v) {
      scenario.clients()[v]->on_latency_sample =
          [&, v](event::Time when, double) {
            last_delivery[v] = when;
            if (when > revoke_at) ++chunks_after_cut;
          };
    }
    scenario.scheduler().schedule(revoke_at, [&] {
      for (std::size_t v = 0; v < victim_count; ++v) {
        const std::string locator =
            workload::ProviderApp::client_key_locator(
                scenario.clients()[v]->label());
        for (auto& provider : scenario.providers()) {
          provider->issuer().revoke(locator);
        }
      }
    });

    const sim::Metrics& metrics = scenario.run();
    util::RunningStats residual;
    for (const event::Time last : last_delivery) {
      residual.add(last > revoke_at ? event::to_seconds(last - revoke_at)
                                    : 0.0);
    }
    const double revocation_latency = residual.mean();
    const double tag_rate =
        static_cast<double>(metrics.clients.tags_requested) /
        event::to_seconds(config.duration);

    latencies.push_back(revocation_latency);
    tag_rates.push_back(tag_rate);
    table.add_row({std::to_string(validity) + " s",
                   util::Table::fmt(revocation_latency, 4),
                   util::Table::fmt(tag_rate, 4),
                   util::Table::fmt(chunks_after_cut)});
    csv.row({std::to_string(validity),
             util::CsvWriter::num(revocation_latency),
             util::CsvWriter::num(tag_rate),
             util::CsvWriter::num(chunks_after_cut)});
  }
  // The alternative point: eager per-revocation pushes (the network-wide
  // update model of the Table II comparators, implemented as the
  // blacklist extension).  Near-zero latency, but every revocation costs
  // one message to every router.
  {
    sim::ScenarioConfig config = bench::paper_scenario(
        static_cast<int>(options.topologies.front()), options);
    config.provider.tag_validity = 60 * event::kSecond;
    sim::Scenario scenario(config);
    const std::size_t victim_count = scenario.clients().size() / 3;
    const event::Time revoke_at = config.duration / 2;
    std::vector<event::Time> last_delivery(victim_count, 0);
    for (std::size_t v = 0; v < victim_count; ++v) {
      scenario.clients()[v]->on_latency_sample =
          [&, v](event::Time when, double) { last_delivery[v] = when; };
    }
    scenario.scheduler().schedule(revoke_at, [&] {
      for (std::size_t v = 0; v < victim_count; ++v) {
        scenario.revoke_client_eagerly(
            workload::ProviderApp::client_key_locator(
                scenario.clients()[v]->label()));
      }
    });
    const sim::Metrics& metrics = scenario.run();
    util::RunningStats residual;
    for (const event::Time last : last_delivery) {
      residual.add(last > revoke_at ? event::to_seconds(last - revoke_at)
                                    : 0.0);
    }
    const double tag_rate =
        static_cast<double>(metrics.clients.tags_requested) /
        event::to_seconds(config.duration);
    table.add_row(
        {"eager push (60 s tags)", util::Table::fmt(residual.mean(), 4),
         util::Table::fmt(tag_rate, 4),
         util::Table::fmt(scenario.anchors().revocations.push_messages) +
             " router msgs"});
    csv.row({"eager", util::CsvWriter::num(residual.mean()),
             util::CsvWriter::num(tag_rate),
             util::CsvWriter::num(
                 scenario.anchors().revocations.push_messages)});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected: revocation latency tracks the validity period (the "
      "revoked client's residual access is its current tag's remaining "
      "lifetime) while the refresh overhead shrinks with longer validity; "
      "the eager push removes the latency but pays per-revocation "
      "network-wide messaging — exactly the cost TACTIC's time-based "
      "design avoids\n");
  bench::ShapeCheck shape;
  shape.check(bench::strictly_monotone(latencies, /*rising=*/true),
              "revocation latency strictly rises with tag validity");
  shape.check(bench::strictly_monotone(tag_rates, /*rising=*/false),
              "tag requests per second strictly fall with tag validity");
  return shape.exit_code();
}
