// FaultPlan resolution: turns the declarative plan into installed link
// fault models, a corruption probe on every forwarder, and scheduled
// crash/restart and flap events.  Lives in its own TU so the fault layer
// can reach the wire codec (the corruption probe feeds flipped bytes to
// the real decoders) without scenario.cpp depending on it.

#include <algorithm>

#include "sim/fault.hpp"
#include "sim/scenario.hpp"
#include "tactic/wire.hpp"

namespace tactic::sim {

namespace {

/// Effective long-run loss fraction of one link class: i.i.d. loss plus
/// corruption plus the Gilbert–Elliott stationary bad-state fraction
/// times its loss rate.
double effective_loss(const net::LinkFaultParams& f) {
  double burst_frac = 0.0;
  if (f.p_enter_burst > 0.0) {
    const double exit = f.p_exit_burst > 0.0 ? f.p_exit_burst : 1e-9;
    burst_frac = f.p_enter_burst / (f.p_enter_burst + exit);
  }
  return f.loss + f.corruption + burst_frac * f.burst_loss;
}

/// The corruption probe: re-encode the packet that would have been
/// delivered, flip 1-8 deterministically chosen bits, and push the
/// mangled bytes through the real decoders — the PR-1 wire-fuzz contract
/// (reject cleanly, or re-encode without crashing), now exercised on
/// live traffic whenever corruption faults are on.  The frame itself is
/// always dropped by the caller, modeling L2 CRC detection.
void corruption_probe(const ndn::PacketVariant& packet, std::uint64_t seed) {
  // Reusable scratch: the probe runs per corrupted frame, and the packet
  // itself is shared/immutable — the flips happen on this copy of the
  // real wire bytes, never on the packet other nodes still hold.
  static thread_local util::Bytes bytes;
  wire::encode_into(bytes, packet);
  if (bytes.empty()) return;
  std::uint64_t state = seed;
  const std::size_t flips =
      1 + static_cast<std::size_t>(util::splitmix64(state) % 8);
  for (std::size_t i = 0; i < flips; ++i) {
    const std::uint64_t r = util::splitmix64(state);
    bytes[(r >> 3) % bytes.size()] ^=
        static_cast<std::uint8_t>(1u << (r & 7));
  }
  if (const auto decoded = wire::decode(bytes)) {
    (void)wire::encode(*decoded);
  }
}

}  // namespace

bool FaultPlan::severe(event::Time duration) const {
  if (duration <= 0) return false;
  if (effective_loss(edge_links) > 0.25) return true;
  if (effective_loss(core_links) > 0.25) return true;
  // Scripted outage time (summed naively; overlapping outages count
  // twice, erring toward "severe" — this budgets liveness, never
  // security).
  event::Time outage = 0;
  for (const CrashEvent& crash : crashes) {
    if (crash.at >= duration) continue;
    const event::Time end =
        crash.down_for == 0
            ? duration
            : std::min(duration, crash.at + crash.down_for);
    outage += end - crash.at;
  }
  for (const LinkFlap& flap : flaps) {
    if (flap.down_at >= duration) continue;
    const event::Time end =
        flap.up_at == 0 ? duration : std::min(duration, flap.up_at);
    if (end > flap.down_at) outage += end - flap.down_at;
  }
  return outage * 4 > duration;
}

void Scenario::install_faults() {
  const FaultPlan& plan = config_.faults;
  if (!plan.any()) return;  // empty plan: bit-identical to no fault layer

  // Dedicated RNG root, derived from (scenario seed, fault seed) but
  // independent of rng_ — installing faults must not perturb topology,
  // workload, or crypto draws.
  std::uint64_t mix = config_.seed;
  util::splitmix64(mix);
  mix ^= plan.fault_seed;
  util::Rng fault_root(util::splitmix64(mix));

  network_->install_link_faults(plan.edge_links, /*wireless=*/true,
                                fault_root);
  network_->install_link_faults(plan.core_links, /*wireless=*/false,
                                fault_root);

  if (plan.clock_skew.any()) {
    // Clock skew draws from its own root (distinct constant mixed into
    // the derivation), so a plan that adds skew to an existing fault mix
    // replays the link/crash draws unchanged.
    std::uint64_t skew_mix = config_.seed;
    util::splitmix64(skew_mix);
    skew_mix ^= plan.fault_seed ^ 0xC10C5E3DULL;
    util::Rng skew_root(util::splitmix64(skew_mix));
    const auto symmetric = [&skew_root](double magnitude) {
      return magnitude * (2.0 * skew_root.uniform_double() - 1.0);
    };
    for (net::NodeId id = 0; id < network_->node_count(); ++id) {
      ndn::LocalClock clock;
      clock.offset = static_cast<event::Time>(symmetric(
          static_cast<double>(plan.clock_skew.max_offset)));
      clock.drift = symmetric(plan.clock_skew.max_drift);
      network_->node(id).set_clock(clock);
    }
  }

  if (plan.edge_links.corruption > 0.0 || plan.core_links.corruption > 0.0) {
    for (net::NodeId id = 0; id < network_->node_count(); ++id) {
      network_->node(id).set_corruption_probe(corruption_probe);
    }
  }

  for (const CrashEvent& crash : plan.crashes) {
    const auto& pool = crash.target == CrashEvent::Target::kEdgeRouter
                           ? network_->edge_routers()
                           : network_->core_routers();
    if (pool.empty()) continue;
    const net::NodeId id = pool[crash.index % pool.size()];
    // Scheduled at construction, a crash keeps the lowest FIFO sequence
    // at its instant: it runs before any same-instant traffic.
    scheduler_.schedule_at(crash.at,
                           [this, id] { network_->node(id).crash(); });
    if (crash.down_for > 0) {
      scheduler_.schedule_at(crash.at + crash.down_for, [this, id] {
        network_->node(id).restart();
      });
    }
  }

  for (const LinkFlap& flap : plan.flaps) {
    net::NodeId a = net::kInvalidNode;
    net::NodeId b = net::kInvalidNode;
    if (flap.where == LinkFlap::Where::kClientAccess) {
      const auto& pool = network_->clients();
      if (pool.empty()) continue;
      a = pool[flap.index % pool.size()];
      b = network_->edge_router_of(a);
    } else {
      const auto& pool = network_->edge_routers();
      if (pool.empty()) continue;
      a = pool[flap.index % pool.size()];
      // First backbone adjacency: skip attached wireless users.
      for (const net::NodeId nbr : network_->neighbors_of(a)) {
        if (net::is_router(network_->node(nbr).info().kind)) {
          b = nbr;
          break;
        }
      }
      if (b == net::kInvalidNode) continue;  // isolated edge router
    }
    const bool reconverge = flap.reconverge;
    // Like crashes, flaps run before any same-instant traffic event.
    scheduler_.schedule_at(flap.down_at, [this, a, b, reconverge] {
      set_adjacency_up(a, b, false, reconverge);
    });
    if (flap.up_at > flap.down_at) {
      scheduler_.schedule_at(flap.up_at, [this, a, b, reconverge] {
        set_adjacency_up(a, b, true, reconverge);
      });
    }
  }
}

}  // namespace tactic::sim
