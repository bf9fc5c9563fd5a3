#pragma once
// Scenario: one fully-wired simulation run.
//
// Builds the topology, installs the chosen access-control policy on every
// router, creates providers / clients / attackers, wires metric hooks,
// runs the event loop for the configured duration, and harvests Metrics.
// All randomness derives from one seed, so runs are bit-reproducible.

#include <memory>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "event/scheduler.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "tactic/compute_model.hpp"
#include "tactic/tactic_policy.hpp"
#include "topology/network.hpp"
#include "workload/attacker_app.hpp"
#include "workload/client_app.hpp"
#include "workload/provider_app.hpp"

namespace tactic::sim {

/// Which access-control mechanism runs on the routers (and how the
/// provider behaves).  See baselines/baselines.hpp for the mapping to the
/// literature.
enum class PolicyKind {
  kTactic,          // the paper's mechanism
  kNoAccessControl, // plain NDN; everyone gets everything
  kClientSideAc,    // client-end enforcement (encrypted content for all)
  kPerRequestAuth,  // always-online provider authentication, no cache reuse
  kProbBf,          // per-hop client-signature verification + router BF
};

const char* to_string(PolicyKind kind);

struct ScenarioConfig {
  topology::TopologyParams topology;  // e.g. topology::paper_topology(1)
  PolicyKind policy = PolicyKind::kTactic;
  core::TacticConfig tactic;          // Bloom sizing, AP/flag/precheck toggles
  workload::ProviderConfig provider;  // catalog, tag validity, key bits
  workload::ClientConfig client;
  /// Attackers probe far less often than clients stream (calibrated in
  /// EXPERIMENTS.md against Table IV's attacker request magnitudes), and
  /// never retransmit, so `max_chunks` caps their `chunks_requested`.
  workload::UserConfig attacker{.think_time_mean = 90 * event::kSecond};
  /// Threat mix, assigned to attackers round-robin.  Default: the threats
  /// the paper's simulations exercise (access-path-dependent sharing is
  /// exercised by the AP ablation instead).
  std::vector<workload::AttackerMode> attacker_mix = {
      workload::AttackerMode::kNoTag,
      workload::AttackerMode::kForgedTag,
      workload::AttackerMode::kExpiredTag,
      workload::AttackerMode::kInsufficientAccessLevel,
      workload::AttackerMode::kWrongProvider,
  };
  core::ComputeModel compute = core::ComputeModel::paper_defaults();
  event::Time duration = 200 * event::kSecond;
  std::uint64_t seed = 1;

  /// Bounded router PIT: at capacity, the least-recently-used entry is
  /// evicted to admit a new Interest (counted in `pit_evictions`).  0
  /// keeps the PIT unbounded (the pre-overload-layer behaviour).
  std::size_t router_pit_capacity = 0;

  /// Installs this many random junk prefixes (first component "xfib…",
  /// never matching workload names) into every edge/core router FIB
  /// before the run — the bigtables mode exercising table behaviour at
  /// 10^4–10^6 entries.  Draws from a dedicated RNG stream, so enabling
  /// it does not perturb the workload's randomness.
  std::size_t prepopulate_fib_prefixes = 0;

  /// Fault injection (chaos layer).  The default (empty) plan leaves the
  /// run bit-identical to a faultless build; see docs/FAULTS.md.
  FaultPlan faults;

  /// Traitor tracing (our implementation of the paper's future work):
  /// edge routers report access-path mismatches to a tracer that revokes
  /// flagged clients at every provider.  Requires enforce_access_path.
  bool enable_traitor_tracing = false;
  core::TraitorTracer::Config traitor_tracing;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Runs the event loop until `duration` and harvests metrics.
  const Metrics& run();

  /// Harvested after run() (or mid-run from examples).
  Metrics harvest();

  /// Stops every client and attacker from issuing new requests
  /// (outstanding ones expire naturally).
  void stop_workloads();

  /// Stops the workloads and keeps running the event loop for `grace`
  /// more simulated time so in-flight packets land and PIT entries
  /// expire.  After a drain, every router PIT should be empty — the
  /// invariant the testing harness asserts.  Returns the new now().
  event::Time drain(event::Time grace = 30 * event::kSecond);

  /// Wireless mobility: moves a user (client or attacker) behind another
  /// access point.  Per the paper, "a mobile client needs to request a
  /// new tag every time she moves to a new location": with access-path
  /// enforcement on, the first request from the new location is NACKed
  /// and the client re-registers automatically.  Schedule mid-run via
  /// scheduler().schedule(...).
  void move_user(net::NodeId user, std::size_t new_ap_index);

  /// The traitor tracer (null unless enable_traitor_tracing).
  core::TraitorTracer* traitor_tracer() { return tracer_.get(); }

  /// Fails (or restores) the a<->b adjacency.  With `reconverge`, routes
  /// to every provider are recomputed immediately (routing-protocol
  /// reconvergence); without it, forwarders rely purely on equal-cost
  /// failover.  Schedule mid-run via scheduler().schedule(...).
  void set_adjacency_up(net::NodeId a, net::NodeId b, bool up,
                        bool reconverge = true);

  /// Recomputes routes to every provider over the live adjacencies (one
  /// routing-protocol reconvergence pass).
  void reconverge();

  /// Eager revocation (extension): refuses future tags for the client at
  /// every provider AND blacklists its outstanding tags network-wide —
  /// the per-revocation push model of the alternatives in Table II.
  /// Access dies immediately, at the cost of one message per router per
  /// revocation (accounted in anchors().revocations.push_messages).
  void revoke_client_eagerly(const std::string& client_key_locator);

  // Introspection for tests and examples.
  event::Scheduler& scheduler() { return scheduler_; }
  topology::Network& network() { return *network_; }
  core::TrustAnchors& anchors() { return anchors_; }
  std::vector<std::unique_ptr<workload::ProviderApp>>& providers() {
    return providers_;
  }
  std::vector<std::unique_ptr<workload::ClientApp>>& clients() {
    return clients_;
  }
  std::vector<std::unique_ptr<workload::AttackerApp>>& attackers() {
    return attackers_;
  }
  const ScenarioConfig& config() const { return config_; }

 private:
  void install_policies();
  void build_providers();
  void build_clients();
  void build_attackers();
  /// The users' popularity law at `alpha`, built on first request.
  /// Every user draws over provider_ptrs_, so alpha alone keys a law.
  util::ZipfDist popularity(double alpha);
  /// Resolves config_.faults against the built network: installs link
  /// fault models and the corruption probe, schedules crashes and flaps.
  /// No-op for an empty plan.  Implemented in fault.cpp.
  void install_faults();
  /// Applies config_.prepopulate_fib_prefixes (no-op at 0).
  void prepopulate_fib();
  workload::AttackerApp::TagStrategy make_strategy(
      workload::AttackerMode mode, std::size_t attacker_index,
      net::NodeId node_id);

  ScenarioConfig config_;
  event::Scheduler scheduler_;
  util::Rng rng_;
  core::TrustAnchors anchors_;
  std::unique_ptr<topology::Network> network_;
  std::vector<std::unique_ptr<workload::ProviderApp>> providers_;
  std::vector<workload::ProviderApp*> provider_ptrs_;
  std::vector<util::ZipfDist> popularity_;  // one per distinct alpha
  std::vector<std::unique_ptr<workload::ClientApp>> clients_;
  std::vector<std::unique_ptr<workload::AttackerApp>> attackers_;
  std::shared_ptr<const crypto::RsaPrivateKey> forger_key_;
  std::shared_ptr<baselines::ProbBfPolicy::Shared> prob_bf_shared_;
  std::unique_ptr<core::TraitorTracer> tracer_;
  /// The client sample series live here: the hooks build_clients()
  /// installs add each sample as it is dispatched, and harvest() copies
  /// them out.
  Metrics metrics_;
  bool ran_ = false;
};

}  // namespace tactic::sim
