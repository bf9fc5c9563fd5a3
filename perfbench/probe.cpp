#include "probe.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "tactic/tactic_policy.hpp"
#include "workloads.hpp"

namespace tactic::perfbench {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double rss_mb_now() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int read = std::fscanf(file, "%llu %llu", &size, &resident);
  std::fclose(file);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space.  getrusage()'s
  // ru_maxrss would not do: Linux carries it across exec, so it would
  // report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kib) == 1) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  return 0.0;
}

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), epoch_(Clock::now()) {
  spans_.reserve(256);
  open_.reserve(16);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::size_t SpanRecorder::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t span) {
  spans_.at(span).end_ns = now_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void SpanRecorder::write(const std::string& path) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"run\": \"" << run_id_ << "\", \"id\": " << i
        << ", \"name\": \"" << span.name << "\", \"parent\": " << span.parent
        << ", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"self_ns\": "
        << (span.end_ns - span.start_ns - child_ns[i]) << "}\n";
  }
}

LoopStats run_sliced(sim::Scenario& scenario, SpanRecorder* spans) {
  event::Scheduler& scheduler = scenario.scheduler();
  const event::Time duration = scenario.config().duration;
  std::vector<std::pair<double, double>> rss;  // (sim minutes, MB)
  rss.reserve(static_cast<std::size_t>(duration / kSlice) + 2);
  LoopStats stats;
  for (event::Time until = kSlice;; until += kSlice) {
    if (until > duration) until = duration;
    const std::size_t span =
        spans != nullptr ? spans->begin("event.run_until") : 0;
    const Clock::time_point start = Clock::now();
    scheduler.run_until(until);
    stats.loop_s += seconds_since(start);
    if (spans != nullptr) spans->end(span);
    if (scheduler.pending_count() > stats.pending_peak) {
      stats.pending_peak = scheduler.pending_count();
    }
    rss.emplace_back(event::to_seconds(until) / 60.0, rss_mb_now());
    if (until == duration) break;
  }
  // Least-squares slope over the second half of the samples.
  const std::size_t first = rss.size() / 2;
  const double n = static_cast<double>(rss.size() - first);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = first; i < rss.size(); ++i) {
    sx += rss[i].first;
    sy += rss[i].second;
    sxx += rss[i].first * rss[i].first;
    sxy += rss[i].first * rss[i].second;
  }
  const double denom = n * sxx - sx * sx;
  if (n >= 2 && denom > 0) {
    stats.rss_growth_mb_per_sim_min = (n * sxy - sx * sy) / denom;
  }
  return stats;
}

Counters collect_counters(sim::Scenario& scenario,
                          const sim::Metrics& metrics) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  sim::RouterOps ops = metrics.edge_ops;
  ops += metrics.core_ops;

  topology::Network& network = scenario.network();
  std::uint64_t pit_expirations = 0;  // every node: users time out too
  std::uint64_t sig_failures = 0;
  for (net::NodeId id = 0; id < network.node_count(); ++id) {
    ndn::Forwarder& node = network.node(id);
    pit_expirations += node.counters().pit_expirations;
    const auto* policy =
        dynamic_cast<const core::TacticRouterPolicy*>(&node.policy());
    if (policy != nullptr) sig_failures += policy->counters().sig_failures;
  }
  const auto num = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"ndn.fib_lookups", num(ops.fib_lookups)},
      {"ndn.fib_nodes_per_lookup",
       ratio(num(ops.fib_nodes_visited), num(ops.fib_lookups))},
      {"ndn.pit_inserts", num(ops.pit_inserts)},
      {"ndn.pit_expirations", num(pit_expirations)},
      {"ndn.cs_lookups", num(metrics.cs_hits + metrics.cs_misses)},
      {"ndn.cs_hit_ratio", metrics.cache_hit_ratio()},
      // Share of packet-slot acquisitions (fresh packets and COW clones)
      // served from a free list rather than by growing a slab.
      {"ndn.pool_reuse_ratio",
       ratio(num(ops.pool_reuses), num(ops.pool_reuses + ops.pool_refills))},
      {"ndn.cow_clones", num(ops.packet_cow_clones)},
      {"crypto.tags_issued", num(metrics.provider_tags_issued)},
      {"crypto.verifications",
       num(ops.sig_verifications + metrics.provider_sig_verifications)},
      {"tactic.bf_lookups", num(ops.bf_lookups)},
      {"tactic.bf_insertions", num(ops.bf_insertions)},
      {"tactic.sig_verifications", num(ops.sig_verifications)},
      {"tactic.neg_cache_hits", num(ops.neg_cache_hits)},
      {"tactic.sheds", num(ops.sheds_queue_full + ops.sheds_unvouched +
                           ops.policer_sheds + ops.quarantine_sheds)},
      {"tactic.sig_valid_ratio",
       ratio(num(ops.sig_verifications - sig_failures),
             num(ops.sig_verifications))},
      {"net.bytes_sent", num(metrics.link_bytes_sent)},
      {"net.frames_dropped", num(metrics.link_frames_dropped)},
      {"workload.client_requests", num(metrics.clients.requested)},
      {"workload.client_delivered", num(metrics.clients.received)},
      // Access-control refusals; overload NACKs are back-pressure.
      {"workload.client_refusals",
       num(metrics.clients.nacks - metrics.clients.overload_nacks)},
      {"workload.attacker_requests", num(metrics.attackers.requested)},
      {"workload.attacker_delivered", num(metrics.attackers.received)},
      {"workload.tags_requested", num(metrics.clients.tags_requested)},
      {"workload.timeouts",
       num(metrics.clients.timeouts + metrics.attackers.timeouts)},
  };
}

double counter(const Counters& counters, const std::string& name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  throw std::out_of_range("no counter named " + name);
}

void JsonLine::add(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + buf;
}

void JsonLine::add(const std::string& key, const std::string& value) {
  body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": \"") + value +
           "\"";
}

void JsonLine::add(const Counters& counters) {
  for (const auto& [key, value] : counters) add(key, value);
}

void JsonLine::print() const {
  std::printf("{%s}\n", body_.c_str());
  std::fflush(stdout);
}

}  // namespace tactic::perfbench
