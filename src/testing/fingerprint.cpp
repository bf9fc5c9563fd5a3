#include "testing/fingerprint.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "crypto/sha256.hpp"
#include "sim/scenario.hpp"
#include "util/bytes.hpp"

namespace tactic::testing {

namespace {

void put(std::string& out, const std::string& key, std::uint64_t value) {
  char line[96];
  std::snprintf(line, sizeof(line), "%s=%llu\n", key.c_str(),
                static_cast<unsigned long long>(value));
  out += line;
}

void put(std::string& out, const std::string& key, double value) {
  char line[96];
  std::snprintf(line, sizeof(line), "%s=%a\n", key.c_str(), value);
  out += line;
}

void put_series(std::string& out, const char* key,
                const util::TimeSeries& series) {
  char line[96];
  std::snprintf(line, sizeof(line), "%s.buckets=%zu\n", key,
                series.bucket_count());
  out += line;
  for (std::size_t b = 0; b < series.bucket_count(); ++b) {
    std::snprintf(line, sizeof(line), "%s[%zu]=%zu:%a\n", key, b,
                  series.count(b), series.sum(b));
    out += line;
  }
}

void put_totals(std::string& out, const std::string& prefix,
                const sim::TrafficTotals& totals) {
#define USER_STAT(counter, total, print) \
  if (sim::print) put(out, prefix + "." #total, totals.total);
#include "workload/user_stats.def"
}

void put_ops(std::string& out, const std::string& prefix,
             const sim::RouterOps& ops) {
  // Rows print in table order.  A batch, adaptive or lifecycle block
  // prints only when one of its printed rows is nonzero, so runs with
  // those layers off keep the fingerprints recorded before the layers
  // existed.
  bool moved[sim::kLayerCount] = {};
#define ENGINE_HISTOGRAM(name, stem, layer)
#define ROUTER_STAT(name, type, merge, print, layer) \
  moved[sim::index(sim::Layer::layer)] |= sim::print && sim::nonzero(ops.name);
#include "tactic/router_stats.def"
  const auto block_prints = [&moved](sim::Layer layer) {
    const bool gated = layer == sim::Layer::kBatch ||
                       layer == sim::Layer::kAdaptive ||
                       layer == sim::Layer::kLifecycle;
    return !gated || moved[sim::index(layer)];
  };
#define ENGINE_HISTOGRAM(name, stem, layer)
#define ROUTER_STAT(name, type, merge, print, layer)  \
  if (sim::print && block_prints(sim::Layer::layer)) \
    put(out, prefix + "." #name, ops.name);
#include "tactic/router_stats.def"
}

void put_vector(std::string& out, const char* key,
                const std::vector<std::uint64_t>& values) {
  char line[96];
  std::snprintf(line, sizeof(line), "%s.size=%zu\n", key, values.size());
  out += line;
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(line, sizeof(line), "%s[%zu]=%llu\n", key, i,
                  static_cast<unsigned long long>(values[i]));
    out += line;
  }
}

}  // namespace

std::string fingerprint(const sim::Metrics& metrics) {
  std::string out;
  out.reserve(4096);
  put_series(out, "latency", metrics.latency);
  put_series(out, "tag_requests", metrics.tag_requests);
  put_series(out, "tag_receives", metrics.tag_receives);
  put_series(out, "recovery_latency", metrics.recovery_latency);
  put_totals(out, "clients", metrics.clients);
  put_totals(out, "attackers", metrics.attackers);
  put_ops(out, "edge_ops", metrics.edge_ops);
  put_ops(out, "core_ops", metrics.core_ops);
  put_vector(out, "edge_requests_per_reset",
             metrics.edge_requests_per_reset);
  put_vector(out, "core_requests_per_reset",
             metrics.core_requests_per_reset);
  put(out, "provider_sig_verifications",
      metrics.provider_sig_verifications);
  put(out, "provider_tags_issued", metrics.provider_tags_issued);
  put(out, "provider_content_served", metrics.provider_content_served);
  put(out, "link_bytes_sent", metrics.link_bytes_sent);
  put(out, "link_frames_dropped", metrics.link_frames_dropped);
  put(out, "link_dropped_queue_full", metrics.link_dropped_queue_full);
  put(out, "link_refused_link_down", metrics.link_refused_link_down);
  put(out, "link_frames_lost", metrics.link_frames_lost);
  put(out, "link_frames_corrupted", metrics.link_frames_corrupted);
  put(out, "cs_hits", metrics.cs_hits);
  put(out, "cs_misses", metrics.cs_misses);
  put(out, "pit_evictions", metrics.pit_evictions);
  put(out, "node_crashes", metrics.node_crashes);
  put(out, "node_restarts", metrics.node_restarts);
  put(out, "packets_dropped_while_down",
      metrics.packets_dropped_while_down);
  put(out, "corrupt_frames_rejected", metrics.corrupt_frames_rejected);
  return out;
}

std::string fingerprint_digest(const sim::Metrics& metrics) {
  return util::to_hex(crypto::Sha256::digest(fingerprint(metrics)));
}

std::string verdict_multiset(sim::Scenario& scenario) {
  std::vector<std::string> lines;
  const auto fold = [&lines](const std::string& label,
                             const workload::UserCounters& c) {
    std::string line = label;
    char buf[96];
    std::snprintf(buf, sizeof(buf), " received=%llu",
                  static_cast<unsigned long long>(c.chunks_received));
    line += buf;
    for (std::size_t r = 1; r < ndn::kNackReasonCount; ++r) {
      const auto reason = static_cast<ndn::NackReason>(r);
      // Back-pressure is a load signal, not a verdict: a batched run may
      // shed at different instants than an unbatched one.
      if (reason == ndn::NackReason::kRouterOverloaded) continue;
      if (c.nacks_by_reason[r] == 0) continue;
      std::snprintf(buf, sizeof(buf), " nack.%s=%llu",
                    ndn::to_string(reason),
                    static_cast<unsigned long long>(c.nacks_by_reason[r]));
      line += buf;
    }
    lines.push_back(std::move(line));
  };
  for (const auto& client : scenario.clients()) {
    fold(client->label(), client->counters());
  }
  for (const auto& attacker : scenario.attackers()) {
    fold(attacker->label(), attacker->counters());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  out.reserve(lines.size() * 48);
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string verdict_digest(sim::Scenario& scenario) {
  return util::to_hex(crypto::Sha256::digest(verdict_multiset(scenario)));
}

}  // namespace tactic::testing
