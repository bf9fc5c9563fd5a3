#include "testing/invariants.hpp"

#include <cstdio>

#include "crypto/sha256.hpp"
#include "tactic/tactic_policy.hpp"
#include "tactic/tag.hpp"
#include "tactic/wire.hpp"

namespace tactic::testing {

namespace {

void append_u64(util::Bytes& out, std::uint64_t value) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

std::string format_seconds(event::Time t) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3fs", event::to_seconds(t));
  return buffer;
}

}  // namespace

InvariantChecker::InvariantChecker(sim::Scenario& scenario,
                                   InvariantOptions options)
    : scenario_(scenario),
      options_(options),
      chain_(crypto::Sha256::kDigestSize, 0) {}

void InvariantChecker::arm() {
  if (armed_) return;
  armed_ = true;
  auto& network = scenario_.network();
  for (std::size_t id = 0; id < network.node_count(); ++id) {
    network.node(static_cast<net::NodeId>(id))
        .add_tracer([this](const ndn::Forwarder& node,
                           const ndn::PacketVariant& packet,
                           ndn::FaceId face, bool is_rx) {
          on_packet(node, packet, face, is_rx);
        });
  }
  schedule_sample();
}

void InvariantChecker::schedule_sample() {
  scenario_.scheduler().schedule(options_.sample_interval, [this] {
    sample();
    const event::Time horizon =
        scenario_.config().duration + options_.drain_grace;
    if (scenario_.scheduler().now() < horizon) schedule_sample();
  });
}

void InvariantChecker::on_packet(const ndn::Forwarder& node,
                                 const ndn::PacketVariant& packet,
                                 ndn::FaceId face, bool is_rx) {
  const event::Time now = node.scheduler().now();

  // Hash the event, then fold it into the multiset accumulator: a
  // lane-wise wrapping sum of per-event digests, so the fold commutes.
  util::Bytes record;
  record.reserve(25);
  append_u64(record, node.info().id);
  append_u64(record, static_cast<std::uint64_t>(face));
  record.push_back(is_rx ? 1 : 0);
  append_u64(record, static_cast<std::uint64_t>(now));
  // Reusable wire scratch: the checker encodes every packet event, so a
  // fresh buffer per event would dominate the run's allocations.
  static thread_local util::Bytes wire_scratch;
  wire::encode_into(wire_scratch, packet);
  crypto::Sha256 hash;
  hash.update(record);
  hash.update(wire_scratch);
  const util::Bytes digest = hash.finish();
  ++packets_observed_;
  for (std::size_t lane = 0; lane < chain_.size(); lane += 8) {
    std::uint64_t sum = 0;
    std::uint64_t add = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      sum |= static_cast<std::uint64_t>(chain_[lane + b]) << (8 * b);
      add |= static_cast<std::uint64_t>(digest[lane + b]) << (8 * b);
    }
    sum += add;  // wrapping; per-lane commutative fold
    for (std::size_t b = 0; b < 8; ++b) {
      chain_[lane + b] = static_cast<std::uint8_t>(sum >> (8 * b));
    }
  }

  if (!is_rx) {
    if (const auto* data = std::get_if<ndn::DataPtr>(&packet)) {
      check_delivery(node, **data, now);
    }
  }
}

void InvariantChecker::check_delivery(const ndn::Forwarder& node,
                                      const ndn::Data& data,
                                      event::Time now) {
  if (scenario_.config().policy != sim::PolicyKind::kTactic) return;
  if (!net::is_router(node.info().kind)) return;
  if (data.is_registration_response || data.nack_attached) return;
  if (data.access_level == ndn::kPublicAccessLevel) return;
  ++deliveries_checked_;

  const std::string& label = node.info().label;
  if (!data.tag) {
    add_violation(now, label, "protected Data sent without tag or NACK: " +
                                  data.name.to_uri());
    return;
  }
  const core::Tag& tag = *data.tag;
  bool structurally_invalid = false;
  // The tag-lifecycle layer deliberately honours tags past T_e: the
  // skew-tolerance window, outage grace, and a behind-running edge clock
  // (bounded by the fault plan's worst offset plus accumulated drift)
  // each widen how stale a delivered tag can legitimately be.  Widen the
  // slack by exactly those configured bounds — anything older is still a
  // violation.
  event::Time slack = options_.expiry_slack;
  const auto& run_config = scenario_.config();
  if (run_config.tactic.skew.enabled) {
    slack += run_config.tactic.skew.tolerance;
  }
  if (run_config.tactic.grace.enabled) {
    slack += run_config.tactic.grace.window;
  }
  if (run_config.faults.clock_skew.any()) {
    slack += run_config.faults.clock_skew.max_offset +
             static_cast<event::Time>(run_config.faults.clock_skew.max_drift *
                                      static_cast<double>(now));
  }
  if (tag.expiry() + slack < now) {
    structurally_invalid = true;
    add_violation(now, label,
                  "expired tag honoured for " + data.name.to_uri() +
                      " (expiry " + format_seconds(tag.expiry()) + ", now " +
                      format_seconds(now) + ")");
  }
  if (data.access_level > tag.access_level()) {
    structurally_invalid = true;
    add_violation(now, label,
                  "insufficient access level honoured for " +
                      data.name.to_uri());
  }
  if (!data.provider_key_locator.empty() &&
      data.provider_key_locator != tag.provider_key_locator()) {
    structurally_invalid = true;
    add_violation(now, label, "wrong-provider tag honoured for " +
                                  data.name.to_uri());
  }
  if (!structurally_invalid && !signature_valid(tag)) {
    // Possibly a designed Bloom false positive — budgeted at finalize().
    ++fp_leaks_;
  }
}

bool InvariantChecker::signature_valid(const core::Tag& tag) {
  const util::Bytes& key = tag.bloom_key();
  auto it = signature_cache_.find(key);
  if (it != signature_cache_.end()) return it->second;
  const bool valid = core::verify_tag_signature(tag, scenario_.anchors().pki);
  signature_cache_.emplace(key, valid);
  return valid;
}

void InvariantChecker::sample() {
  const event::Time now = scenario_.scheduler().now();
  auto& network = scenario_.network();
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    const net::NodeId id = static_cast<net::NodeId>(i);
    auto& node = network.node(id);
    // O(1) amortized per sample: the PIT's lazy expiry heap yields the
    // earliest live deadline; the full table is walked only to name the
    // offenders once a violation is already certain.
    if (const auto min = node.pit().min_expiry(); min && *min < now) {
      node.pit().for_each([&](const ndn::PitEntry& entry) {
        if (entry.expiry_time < now) {
          add_violation(
              now, node.info().label,
              "PIT entry outlived its expiry: " + entry.name.to_uri() +
                  " (expiry " + format_seconds(entry.expiry_time) +
                  ", now " + format_seconds(now) + ")");
        }
      });
    }
    if (node.cs().capacity() > 0 &&
        node.cs().size() > node.cs().capacity()) {
      add_violation(now, node.info().label, "CS exceeded its capacity");
    }
    if (node.pit_capacity() > 0 &&
        node.pit().size() > node.pit_capacity()) {
      add_violation(now, node.info().label,
                    "PIT exceeded its configured capacity");
    }
    if (const auto* tactic =
            dynamic_cast<const core::TacticRouterPolicy*>(&node.policy())) {
      const bool over = tactic->bloom().current_fpp() >
                        tactic->config().bloom.max_fpp;
      int& streak = fpp_streak_[id];
      if (over && ++streak > 1) {
        add_violation(now, node.info().label,
                      "BF estimated FPP above the reset threshold for more "
                      "than one sampling interval");
      }
      if (!over) streak = 0;
    }
  }
}

void InvariantChecker::check_pits(const char* context) {
  const event::Time now = scenario_.scheduler().now();
  auto& network = scenario_.network();
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    auto& node = network.node(static_cast<net::NodeId>(i));
    if (node.pit().size() != 0) {
      char what[96];
      std::snprintf(what, sizeof(what), "PIT holds %zu entries %s",
                    node.pit().size(), context);
      add_violation(now, node.info().label, what);
    }
  }
}

void InvariantChecker::finalize() {
  if (finalized_) return;
  finalized_ = true;
  scenario_.drain(options_.drain_grace);
  check_pits("after drain");

  const sim::Metrics metrics = scenario_.harvest();
  const auto& config = scenario_.config();
  const event::Time now = scenario_.scheduler().now();

  const std::uint64_t resolved = metrics.clients.received +
                                 metrics.clients.nacks +
                                 metrics.clients.timeouts;
  if (resolved > metrics.clients.requested) {
    add_violation(now, "-", "client accounting: received+nacks+timeouts "
                       "exceeds requests");
  }
  if (config.topology.clients > 0 &&
      config.duration >= 5 * event::kSecond) {
    if (metrics.clients.requested == 0) {
      add_violation(now, "-", "liveness: clients issued no requests");
    } else if (metrics.clients.received == 0 &&
               !config.faults.severe(config.duration)) {
      // A severe fault plan (sustained heavy loss or outages covering a
      // large share of the run) may legitimately starve delivery, so
      // only this liveness check is budgeted — never the security ones.
      add_violation(now, "-", "liveness: no client received any content");
    }
  }
  if (!config.faults.any()) {
    // Faultless runs must not report fault-model activity.
    if (metrics.link_frames_lost != 0 || metrics.link_frames_corrupted != 0 ||
        metrics.node_crashes != 0 || metrics.node_restarts != 0 ||
        metrics.corrupt_frames_rejected != 0) {
      add_violation(now, "-", "fault accounting: fault-model counters nonzero "
                         "without a fault plan");
    }
  }
  // A disabled layer must be perfectly inert: every router row of its
  // layer in tactic/router_stats.def stays zero.  Returns the violation
  // for a disabled layer, null for a live one.
  const auto inert_violation = [&config](sim::Layer layer) -> const char* {
    switch (layer) {
      case sim::Layer::kOverload:
        if (config.tactic.overload.enabled) return nullptr;
        return "overload accounting: overload-layer counters nonzero while "
               "the layer is disabled";
      case sim::Layer::kBatch:
        if (config.tactic.batch.enabled) return nullptr;
        return "batch accounting: batch-layer counters nonzero while the "
               "layer is disabled";
      case sim::Layer::kAdaptive:
        // The adaptive layer only arms when both its own flag and the
        // overload layer are on.
        if (config.tactic.adaptive.enabled && config.tactic.overload.enabled) {
          return nullptr;
        }
        return "adaptive accounting: adaptive-layer counters nonzero while "
               "the layer is disabled";
      case sim::Layer::kLifecycle:
        if (config.faults.clock_skew.any() || config.tactic.skew.enabled ||
            config.tactic.grace.enabled) {
          return nullptr;
        }
        return "lifecycle accounting: skew/grace counters nonzero while "
               "skewed clocks, the tolerance window, and grace mode are all "
               "disabled";
      case sim::Layer::kBase:
      case sim::Layer::kForwarder:
        return nullptr;
    }
    return nullptr;
  };
  for (const sim::RouterOps* ops : {&metrics.edge_ops, &metrics.core_ops}) {
    bool moved[sim::kLayerCount] = {};
#define ROUTER_STAT(name, type, merge, print, layer) \
  moved[sim::index(sim::Layer::layer)] |= sim::nonzero(ops->name);
#include "tactic/router_stats.def"
    for (std::size_t layer = 0; layer < sim::kLayerCount; ++layer) {
      const char* why = inert_violation(static_cast<sim::Layer>(layer));
      if (moved[layer] && why != nullptr) add_violation(now, "-", why);
    }
  }
  if (!config.tactic.overload.enabled && metrics.clients.overload_nacks != 0) {
    add_violation(now, "-", "overload accounting: clients saw "
                       "kRouterOverloaded NACKs while the layer is "
                       "disabled");
  }
  if (!config.client.proactive_renewal &&
      metrics.clients.proactive_renewals != 0) {
    add_violation(now, "-", "lifecycle accounting: proactive renewals counted "
                       "while proactive renewal is disabled");
  }
  if (config.faults.clock_skew.any() && config.tactic.skew.enabled) {
    // Skew tolerance correctness: when the window covers the worst clock
    // error any node can accumulate over the whole run (offset plus
    // drift), no genuinely live tag may be rejected as expired.
    const event::Time horizon = config.duration + options_.drain_grace;
    const event::Time worst_skew =
        config.faults.clock_skew.max_offset +
        static_cast<event::Time>(config.faults.clock_skew.max_drift *
                                 static_cast<double>(horizon));
    if (worst_skew <= config.tactic.skew.tolerance &&
        (metrics.edge_ops.skew_false_rejects != 0 ||
         metrics.core_ops.skew_false_rejects != 0)) {
      add_violation(now, "-", "skew tolerance: live tags rejected although the "
                         "worst-case clock skew fits inside the tolerance "
                         "window");
    }
  }
  if (config.router_pit_capacity == 0 && metrics.pit_evictions != 0) {
    add_violation(now, "-", "PIT accounting: evictions counted with an "
                       "unbounded PIT");
  }

  switch (config.policy) {
    case sim::PolicyKind::kTactic: {
      if (fp_leaks_ > options_.fp_leak_budget) {
        char what[128];
        std::snprintf(what, sizeof(what),
                      "signature-invalid tags honoured %llu times "
                      "(Bloom false-positive budget %llu)",
                      static_cast<unsigned long long>(fp_leaks_),
                      static_cast<unsigned long long>(
                          options_.fp_leak_budget));
        add_violation(now, "-", what);
      }
      if (metrics.attackers.received > fp_leaks_) {
        char what[128];
        std::snprintf(what, sizeof(what),
                      "attackers received %llu chunks under kTactic "
                      "(only %llu Bloom false-positive leaks observed)",
                      static_cast<unsigned long long>(
                          metrics.attackers.received),
                      static_cast<unsigned long long>(fp_leaks_));
        add_violation(now, "-", what);
      }
      break;
    }
    case sim::PolicyKind::kPerRequestAuth:
    case sim::PolicyKind::kProbBf:
      if (metrics.attackers.received != 0) {
        add_violation(now, "-",
                      std::string("attackers received content under ") +
                          sim::to_string(config.policy));
      }
      break;
    case sim::PolicyKind::kNoAccessControl:
    case sim::PolicyKind::kClientSideAc:
      break;  // attackers are expected to receive content
  }
}

void InvariantChecker::add_violation(event::Time when,
                                     const std::string& node,
                                     std::string what) {
  ++violation_count_;
  if (violations_.size() < options_.max_recorded) {
    violations_.push_back(Violation{when, node, std::move(what)});
  }
}

std::string InvariantChecker::trace_digest() const {
  return util::to_hex(chain_);
}

std::string InvariantChecker::report() const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "packets=%llu deliveries_checked=%llu fp_leaks=%llu "
                "violations=%llu\n",
                static_cast<unsigned long long>(packets_observed_),
                static_cast<unsigned long long>(deliveries_checked_),
                static_cast<unsigned long long>(fp_leaks_),
                static_cast<unsigned long long>(violation_count_));
  std::string out = line;
  for (const auto& violation : violations_) {
    out += "  [" + format_seconds(violation.when) + "] " + violation.node +
           ": " + violation.what + "\n";
  }
  if (violation_count_ > violations_.size()) {
    std::snprintf(line, sizeof(line), "  ... and %llu more\n",
                  static_cast<unsigned long long>(violation_count_ -
                                                  violations_.size()));
    out += line;
  }
  return out;
}

}  // namespace tactic::testing
