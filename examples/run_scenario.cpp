// Command-line scenario runner: every ScenarioConfig knob as a flag, one
// full metrics report out.  The fastest way to poke at the system without
// writing code.  Example (one command line, wrapped here):
//
//   ./build/examples/run_scenario --topology 2 --duration 120
//       --policy tactic --bf-size 500 --max-fpp 1e-4 --tag-validity 10
//       --access-path --traitor-tracing --seed 3
//
// Flags (defaults in brackets):
//   --topology N        Table III preset 1..4 [1]
//   --duration S        simulated seconds [60]
//   --seed N            root seed [1]
//   --policy P          tactic | none | client-side | per-request |
//                       prob-bf [tactic]
//   --bf-size N         router Bloom capacity [500]
//   --max-fpp F         BF saturation threshold [1e-4]
//   --tag-validity S    tag expiry period [10]
//   --access-path       enforce access-path authentication [off]
//   --traitor-tracing   enable the tracer (implies --access-path) [off]
//   --no-precheck       ablate Protocol 1 [on]
//   --no-cooperation    ablate flag-F cooperation [on]
//   --key-bits N        provider RSA modulus [512]
//   --clients N / --attackers N   override the preset's counts
//
// After the report, one "host:" line gives the run's own cost: set-up and
// loop wall seconds, and peak RSS (VmHWM from /proc/self/status, left out
// where that file cannot be read).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "sim/scenario.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace tactic;

namespace {

sim::PolicyKind parse_policy(const std::string& name) {
  if (name == "tactic") return sim::PolicyKind::kTactic;
  if (name == "none") return sim::PolicyKind::kNoAccessControl;
  if (name == "client-side") return sim::PolicyKind::kClientSideAc;
  if (name == "per-request") return sim::PolicyKind::kPerRequestAuth;
  if (name == "prob-bf") return sim::PolicyKind::kProbBf;
  throw std::invalid_argument("unknown --policy: " + name);
}

/// This process's peak resident set in MB (VmHWM), if the kernel says.
std::optional<double> peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kib) == 1) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  return std::nullopt;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);

  sim::ScenarioConfig config;
  config.topology =
      topology::paper_topology(static_cast<int>(flags.get_int("topology", 1)));
  config.duration = event::from_seconds(flags.get_double("duration", 60.0));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  config.policy = parse_policy(flags.get_string("policy", "tactic"));
  config.tactic.bloom.capacity =
      static_cast<std::size_t>(flags.get_int("bf-size", 500));
  config.tactic.bloom.max_fpp = flags.get_double("max-fpp", 1e-4);
  config.provider.tag_validity =
      event::from_seconds(flags.get_double("tag-validity", 10.0));
  config.tactic.enforce_access_path = flags.get_bool("access-path", false);
  config.enable_traitor_tracing = flags.get_bool("traitor-tracing", false);
  if (config.enable_traitor_tracing) config.tactic.enforce_access_path = true;
  config.tactic.precheck = flags.get_bool("precheck", true);
  config.tactic.flag_cooperation = flags.get_bool("cooperation", true);
  config.provider.key_bits =
      static_cast<std::size_t>(flags.get_int("key-bits", 512));
  if (flags.has("clients")) {
    config.topology.clients =
        static_cast<std::size_t>(flags.get_int("clients", 35));
  }
  if (flags.has("attackers")) {
    config.topology.attackers =
        static_cast<std::size_t>(flags.get_int("attackers", 15));
  }

  std::printf("policy=%s topology: %zu core + %zu edge routers, %zu "
              "clients, %zu attackers; %.0fs @ seed %llu\n\n",
              to_string(config.policy), config.topology.core_routers,
              config.topology.edge_routers, config.topology.clients,
              config.topology.attackers,
              event::to_seconds(config.duration),
              static_cast<unsigned long long>(config.seed));

  const auto setup_start = std::chrono::steady_clock::now();
  sim::Scenario scenario(config);
  const double setup_s = seconds_since(setup_start);
  const auto loop_start = std::chrono::steady_clock::now();
  const sim::Metrics& m = scenario.run();
  const double loop_s = seconds_since(loop_start);

  util::Table table({"metric", "clients", "attackers"});
  table.add_row({"chunks requested", util::Table::fmt(m.clients.requested),
                 util::Table::fmt(m.attackers.requested)});
  table.add_row({"chunks received", util::Table::fmt(m.clients.received),
                 util::Table::fmt(m.attackers.received)});
  table.add_row({"delivery ratio",
                 util::Table::fmt_ratio(m.clients.delivery_ratio()),
                 util::Table::fmt_ratio(m.attackers.delivery_ratio())});
  table.add_row({"NACKs", util::Table::fmt(m.clients.nacks),
                 util::Table::fmt(m.attackers.nacks)});
  table.add_row({"timeouts", util::Table::fmt(m.clients.timeouts),
                 util::Table::fmt(m.attackers.timeouts)});
  table.add_row({"tags requested / received",
                 util::Table::fmt(m.clients.tags_requested) + " / " +
                     util::Table::fmt(m.clients.tags_received),
                 "-"});
  table.print(std::cout);

  util::Table routers({"router class", "BF lookups", "BF inserts",
                       "sig verifies", "BF resets", "compute (s)"});
  routers.add_row({"edge", util::Table::fmt(m.edge_ops.bf_lookups),
                   util::Table::fmt(m.edge_ops.bf_insertions),
                   util::Table::fmt(m.edge_ops.sig_verifications),
                   util::Table::fmt(m.edge_ops.bf_resets),
                   util::Table::fmt(m.edge_ops.compute_charged_s, 4)});
  routers.add_row({"core", util::Table::fmt(m.core_ops.bf_lookups),
                   util::Table::fmt(m.core_ops.bf_insertions),
                   util::Table::fmt(m.core_ops.sig_verifications),
                   util::Table::fmt(m.core_ops.bf_resets),
                   util::Table::fmt(m.core_ops.compute_charged_s, 4)});
  std::printf("\n");
  routers.print(std::cout);

  std::printf("\nmean latency %.2f ms | cache hit %.1f%% | provider "
              "verifies %llu, tags issued %llu, served %llu | wire %.1f MB"
              ", %llu frames dropped\n",
              1e3 * m.mean_latency(), 100.0 * m.cache_hit_ratio(),
              static_cast<unsigned long long>(m.provider_sig_verifications),
              static_cast<unsigned long long>(m.provider_tags_issued),
              static_cast<unsigned long long>(m.provider_content_served),
              static_cast<double>(m.link_bytes_sent) / 1e6,
              static_cast<unsigned long long>(m.link_frames_dropped));
  if (scenario.traitor_tracer() != nullptr) {
    std::printf("traitor tracer: %llu reports, %zu flagged\n",
                static_cast<unsigned long long>(
                    scenario.traitor_tracer()->reports_received()),
                scenario.traitor_tracer()->flagged().size());
  }
  std::printf("host: setup %.3f s, loop %.3f s", setup_s, loop_s);
  if (const auto rss = peak_rss_mb()) std::printf(", peak RSS %.2f MB", *rss);
  std::printf("\n");
  return 0;
}
