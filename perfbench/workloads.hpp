#pragma once
// The benchmark's fixed workloads.  Each is a function of the seed alone:
// the runners receive only the generated ScenarioConfig.
//
//   paper_t4    paper Topo 4 (600 routers, 213 clients, 87 attackers),
//               512-bit keys: forwarding, scheduler, tables and memory.
//   rsa1024_t2  paper Topo 2 at the paper's 1024-bit provider keys: the
//               one workload where real RSA dominates the event loop.
//   flood_10x   six churning-forger attackers at 10x tempo against the
//               overload and adaptive layers: shedding, negative cache
//               and PIT eviction, with almost no crypto or table work.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace tactic::perfbench {

/// Simulated length of every workload run.
inline constexpr event::Time kSimDuration = 60 * event::kSecond;
/// Length of one run_until() slice; pending-queue depth and RSS are
/// sampled at slice boundaries.
inline constexpr event::Time kSlice = event::kSecond;

const std::vector<std::string>& workload_names();

/// Builds the named workload; throws std::invalid_argument on an unknown
/// name.
sim::ScenarioConfig make_workload(const std::string& name,
                                  std::uint64_t seed);

}  // namespace tactic::perfbench
