#include "sim/metrics.hpp"

namespace tactic::sim {

RouterOps& RouterOps::operator+=(const RouterOps& other) {
#define ROUTER_STAT(name, type, how, print, layer) \
  merge(name, other.name, Merge::how);
#include "tactic/router_stats.def"
  return *this;
}

TrafficTotals& TrafficTotals::operator+=(const TrafficTotals& other) {
#define USER_STAT(counter, total, print) total += other.total;
#include "workload/user_stats.def"
  return *this;
}

void RouterOpsStats::add(const RouterOps& ops) {
#define ROUTER_STAT(name, type, merge, print, layer) \
  name.add(static_cast<double>(ops.name));
#define ENGINE_HISTOGRAM(name, stem, layer)   \
  stem##_p50_s.add(ops.name.quantile(0.50)); \
  stem##_p95_s.add(ops.name.quantile(0.95)); \
  stem##_p99_s.add(ops.name.quantile(0.99));
#include "tactic/router_stats.def"
}

double Metrics::mean_requests_per_reset(
    const std::vector<std::uint64_t>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (std::uint64_t s : samples) sum += static_cast<double>(s);
  return sum / static_cast<double>(samples.size());
}

void MetricsAccumulator::add(const Metrics& metrics) {
  ++runs;
  mean_latency.add(metrics.mean_latency());
  client_delivery.add(metrics.clients.delivery_ratio());
  attacker_delivery.add(metrics.attackers.delivery_ratio());
  client_requested.add(static_cast<double>(metrics.clients.requested));
  client_received.add(static_cast<double>(metrics.clients.received));
  attacker_requested.add(static_cast<double>(metrics.attackers.requested));
  attacker_received.add(static_cast<double>(metrics.attackers.received));

  const double seconds =
      metrics.tag_requests.bucket_count() > 0
          ? static_cast<double>(metrics.tag_requests.bucket_count())
          : 1.0;
  tag_request_rate.add(
      static_cast<double>(metrics.clients.tags_requested) / seconds);
  tag_receive_rate.add(
      static_cast<double>(metrics.clients.tags_received) / seconds);

  edge.add(metrics.edge_ops);
  core.add(metrics.core_ops);
  RouterOps both = metrics.edge_ops;
  both += metrics.core_ops;
  routers.add(both);
  edge_reqs_per_reset.add(
      Metrics::mean_requests_per_reset(metrics.edge_requests_per_reset));
  core_reqs_per_reset.add(
      Metrics::mean_requests_per_reset(metrics.core_requests_per_reset));
  provider_verifies.add(
      static_cast<double>(metrics.provider_sig_verifications));
  cache_hit_ratio.add(metrics.cache_hit_ratio());
  attacker_nacks.add(static_cast<double>(metrics.attackers.nacks));
  attacker_timeouts.add(static_cast<double>(metrics.attackers.timeouts));
}

}  // namespace tactic::sim
