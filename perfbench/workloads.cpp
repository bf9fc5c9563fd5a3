#include "workloads.hpp"

#include <stdexcept>

namespace tactic::perfbench {

namespace {

sim::ScenarioConfig paper(int topology_index, std::size_t key_bits,
                          std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.topology = topology::paper_topology(topology_index);
  config.provider.key_bits = key_bits;
  config.duration = kSimDuration;
  config.seed = seed;
  return config;
}

// The flood-ramp scenario held at its 10x peak: six churning forgers
// (window 80, i.e. ten times the ramp's baseline tempo) against the
// adaptive overload arm with 4 validation lanes and ~1 ms simulated
// signature verifies.
sim::ScenarioConfig flood_10x(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.topology.core_routers = 8;
  config.topology.edge_routers = 3;
  config.topology.providers = 2;
  config.topology.clients = 8;
  config.topology.attackers = 6;
  config.topology.core_cs_capacity = 200;
  config.provider.key_bits = 512;
  config.provider.tag_validity = 10 * event::kSecond;
  config.tactic.bloom.capacity = 60;
  config.duration = kSimDuration;
  config.seed = seed;
  config.attacker_mix = {workload::AttackerMode::kForgedTagChurn};
  config.attacker.window = 80;
  config.attacker.think_time_mean = 100 * event::kMillisecond;
  config.attacker.interest_lifetime = 50 * event::kMillisecond;
  core::ComputeModel::Params compute;
  compute.bf_lookup = {9.14e-7, 0.0};
  compute.bf_insert = {3.35e-7, 0.0};
  compute.sig_verify = {1e-3, 0.0};
  compute.neg_lookup = {1.5e-7, 0.0};
  config.compute = core::ComputeModel(compute);
  core::OverloadConfig& overload = config.tactic.overload;
  overload.enabled = true;
  overload.neg_cache_capacity = 512;
  overload.neg_cache_ttl = 5 * event::kSecond;
  overload.staged_bf_reset = true;
  overload.queue_capacity = 64;
  overload.shed_watermark = 32;
  config.router_pit_capacity = 512;
  config.tactic.adaptive.enabled = true;
  config.tactic.validation_lanes = 4;
  return config;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_t4", "rsa1024_t2",
                                                 "flood_10x"};
  return names;
}

sim::ScenarioConfig make_workload(const std::string& name,
                                  std::uint64_t seed) {
  if (name == "paper_t4") return paper(4, 512, seed);
  if (name == "rsa1024_t2") return paper(2, 1024, seed);
  if (name == "flood_10x") return flood_10x(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace tactic::perfbench
