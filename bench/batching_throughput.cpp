// Batched validation throughput (docs/ARCHITECTURE.md, "Batched
// validation"): amortized batch-RSA under an attacker flood.
//
// A forged-tag flood forces a signature verification per attack
// Interest at the edge — the router-DoS vector resilience_attacker_flood
// measures.  Batching attacks the cost side instead of the admission
// side: same-provider verifications arriving within the hold window are
// charged one amortized batch-RSA pass, so the mean signature compute
// *per verified Interest* falls with batch occupancy while every
// verdict stays exactly what per-operation charging would have produced
// (tests/batching_test.cpp proves the equivalence).
//
// This harness sweeps the flush size cap under a 10x forged-tag flood
// and reports the per-verification signature compute, the occupancy the
// flood actually achieved, and the client delivery ratio — which must
// sit within a whisker of the unbatched run, since batching only moves
// charges, never verdicts.
//
// Knobs beyond the shared harness set:
//   --hold-ms H     batch hold time in milliseconds (default 5)
//   --flood N       attacker window multiplier (default 10)

#include "harness.hpp"

namespace {

using namespace tactic;

struct BatchResult {
  double delivery_ratio = 0;
  std::uint64_t router_sigs = 0;       // edge + core verifications
  double sig_compute_s = 0;            // edge + core signature charge
  double mean_per_sig_us = 0;          // charge per verification
  double occupancy = 0;                // items per flushed batch
  std::uint64_t flush_size_cap = 0;
  std::uint64_t flush_deadline = 0;
  double unbatched_equiv_s = 0;        // what one-by-one would have cost
  std::uint64_t bf_probes_coalesced = 0;
};

BatchResult run_batched(std::size_t max_batch, event::Time max_hold,
                        std::size_t flood,
                        const bench::HarnessOptions& options) {
  sim::ScenarioConfig config;
  config.topology.core_routers = 8;
  config.topology.edge_routers = 3;
  config.topology.providers = 2;
  config.topology.clients = 8;
  config.topology.attackers = 6;
  config.provider.key_bits = options.full ? 1024 : 512;
  config.compute = core::ComputeModel::deterministic();
  config.duration = event::from_seconds(options.duration_s);
  config.seed = options.seed;
  // Forged tags name a real provider key, so the flood's verifications
  // all land in that provider's batch and actually amortize.
  config.attacker_mix = {workload::AttackerMode::kForgedTag};
  config.attacker.window = 8 * flood;
  config.attacker.think_time_mean = 100 * event::kMillisecond;
  config.attacker.interest_lifetime = 50 * event::kMillisecond;
  if (max_batch > 0) {
    config.tactic.batch.enabled = true;
    config.tactic.batch.max_batch = max_batch;
    config.tactic.batch.max_hold = max_hold;
  }

  sim::Scenario scenario(config);
  const sim::Metrics& metrics = scenario.run();

  BatchResult result;
  result.delivery_ratio = metrics.clients.delivery_ratio();
  std::uint64_t batches = 0, items = 0;
  for (const sim::RouterOps* ops : {&metrics.edge_ops, &metrics.core_ops}) {
    result.router_sigs += ops->sig_verifications;
    result.sig_compute_s += ops->compute_sig_s;
    batches += ops->sig_batches_flushed;
    items += ops->sig_batched_items;
    result.flush_size_cap += ops->sig_batch_flush_size_cap;
    result.flush_deadline += ops->sig_batch_flush_deadline;
    result.unbatched_equiv_s += ops->sig_batch_unbatched_equiv_s;
    result.bf_probes_coalesced += ops->bf_probes_coalesced;
  }
  result.mean_per_sig_us =
      result.router_sigs == 0
          ? 0.0
          : 1e6 * result.sig_compute_s /
                static_cast<double>(result.router_sigs);
  result.occupancy = batches == 0 ? 0.0
                                  : static_cast<double>(items) /
                                        static_cast<double>(batches);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tactic;
  const bench::HarnessOptions options =
      bench::HarnessOptions::parse(argc, argv, {1}, 30.0);
  util::Flags flags(argc, argv);
  // 5 ms default: long enough for the flood's link-serialized arrivals
  // (~1-2 ms apart per edge router) to pool into 2.5+-item batches.
  const event::Time hold = static_cast<event::Time>(
      flags.get_double("hold-ms", 5.0) * event::kMillisecond);
  const std::size_t flood =
      static_cast<std::size_t>(flags.get_int("flood", 10));
  bench::print_header(
      "Batched validation: per-verification signature compute under a "
      "forged-tag flood",
      options);
  std::printf(
      "dense metro edge, x%zu forged-tag flood, hold %.1f ms; batch=off "
      "is per-operation charging\n\n",
      flood, event::to_seconds(hold) * 1e3);

  util::Table table({"Batch", "Delivery", "Router sigs", "Sig compute (s)",
                     "Per-sig (us)", "Occupancy", "Size-cap", "Deadline",
                     "1-by-1 equiv (s)"});
  bench::MaybeCsv csv(options.csv_path);
  csv.row({"max_batch", "delivery_ratio", "router_sigs", "sig_compute_s",
           "per_sig_us", "occupancy", "flush_size_cap", "flush_deadline",
           "unbatched_equiv_s", "bf_probes_coalesced"});

  const BatchResult baseline = run_batched(0, hold, flood, options);
  BatchResult at8;
  for (const std::size_t max_batch : {std::size_t{0}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8},
                                      std::size_t{16}}) {
    const BatchResult result =
        max_batch == 0 ? baseline : run_batched(max_batch, hold, flood, options);
    if (max_batch == 8) at8 = result;
    const std::string label =
        max_batch == 0 ? "off" : std::to_string(max_batch);
    table.add_row({label,
                   util::Table::fmt_percent(100 * result.delivery_ratio),
                   std::to_string(result.router_sigs),
                   util::Table::fmt(result.sig_compute_s, 6),
                   util::Table::fmt(result.mean_per_sig_us, 4),
                   util::Table::fmt(result.occupancy, 3),
                   std::to_string(result.flush_size_cap),
                   std::to_string(result.flush_deadline),
                   util::Table::fmt(result.unbatched_equiv_s, 6)});
    csv.row({label, util::CsvWriter::num(result.delivery_ratio),
             std::to_string(result.router_sigs),
             util::CsvWriter::num(result.sig_compute_s),
             util::CsvWriter::num(result.mean_per_sig_us),
             util::CsvWriter::num(result.occupancy),
             std::to_string(result.flush_size_cap),
             std::to_string(result.flush_deadline),
             util::CsvWriter::num(result.unbatched_equiv_s),
             std::to_string(result.bf_probes_coalesced)});
  }
  table.print(std::cout);

  const double reduction =
      at8.mean_per_sig_us > 0
          ? baseline.mean_per_sig_us / at8.mean_per_sig_us
          : 0.0;
  const double delivery_gap =
      baseline.delivery_ratio - at8.delivery_ratio;
  std::printf(
      "\nbatch=8 vs off: %.2fx per-verification compute reduction, "
      "delivery gap %+.3f%%\n"
      "expected: >= 2x reduction (occupancy above ~2.3 makes the "
      "amortized factor beat one-by-one 2:1) with delivery within 0.5%% "
      "of unbatched — batching moves charges, not verdicts\n",
      reduction, 100 * delivery_gap);
  return 0;
}
