// Timed runner: one workload run per process, so the resident high-water
// mark belongs to this run alone.  Prints one JSON line.
//
//   perfbench_run --workload NAME --seed N [--unsliced 1]
//                 [--topology-builds K]
//
// Default (sliced) mode times Scenario construction, the event loop driven
// through scheduler().run_until() in kSlice steps, and harvest(), and
// reports the fingerprint digest plus every counter.  --unsliced runs the
// same config through Scenario::run() instead and reports only its digest:
// the self-check that slicing does not perturb the simulation.
// --topology-builds K additionally times K stand-alone topology::Network
// builds with the workload's params and seed (median reported).

#include <cstdio>
#include <exception>
#include <vector>

#include "probe.hpp"
#include "testing/fingerprint.hpp"
#include "util/flags.hpp"
#include "workloads.hpp"

namespace {

using namespace tactic;
using namespace tactic::perfbench;

int run(const util::Flags& flags) {
  const std::string workload = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const sim::ScenarioConfig config = make_workload(workload, seed);
  JsonLine out;

  if (flags.get_bool("unsliced", false)) {
    sim::Scenario scenario(config);
    const sim::Metrics& metrics = scenario.run();
    out.add("digest", testing::fingerprint_digest(metrics));
    out.add("event.events",
            static_cast<double>(scenario.scheduler().executed_count()));
    out.add("workload.attacker_delivered",
            static_cast<double>(metrics.attackers.received));
    out.print();
    return 0;
  }

  const Clock::time_point setup_start = Clock::now();
  sim::Scenario scenario(config);
  const double setup_s = seconds_since(setup_start);

  const LoopStats loop = run_sliced(scenario);

  const Clock::time_point harvest_start = Clock::now();
  const sim::Metrics metrics = scenario.harvest();
  const double harvest_s = seconds_since(harvest_start);
  const double peak_mb = peak_rss_mb();

  out.add("setup_s", setup_s);
  out.add("loop_s", loop.loop_s);
  out.add("sim.harvest_s", harvest_s);
  out.add("sim_s", event::to_seconds(config.duration));
  out.add("peak_rss_mb", peak_mb);
  out.add("client_delivery_ratio", metrics.clients.delivery_ratio());
  out.add("digest", testing::fingerprint_digest(metrics));
  out.add("event.events",
          static_cast<double>(scenario.scheduler().executed_count()));
  out.add("event.pending_peak", static_cast<double>(loop.pending_peak));
  out.add("sim.rss_growth_mb_per_sim_min", loop.rss_growth_mb_per_sim_min);
  out.add(collect_counters(scenario, metrics));

  const std::int64_t builds = flags.get_int("topology-builds", 0);
  if (builds > 0) {
    std::vector<double> build_s;
    for (std::int64_t i = 0; i < builds; ++i) {
      // Scenario seeds its RNG with config.seed and hands it to the
      // Network first, so this is the same build.
      event::Scheduler scheduler;
      util::Rng rng(config.seed);
      const Clock::time_point start = Clock::now();
      topology::Network network(scheduler, config.topology, rng);
      build_s.push_back(seconds_since(start));
    }
    out.add("topology.build_s", median(build_s));
  }
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(tactic::util::Flags(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_run: %s\n", error.what());
    return 2;
  }
}
