#include "sim/scenario.hpp"

#include <stdexcept>

#include "tactic/access_path.hpp"

namespace tactic::sim {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kTactic: return "TACTIC";
    case PolicyKind::kNoAccessControl: return "no-access-control";
    case PolicyKind::kClientSideAc: return "client-side-AC";
    case PolicyKind::kPerRequestAuth: return "per-request-auth";
    case PolicyKind::kProbBf: return "prob-bf";
  }
  return "?";
}

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  network_ = std::make_unique<topology::Network>(scheduler_,
                                                 config_.topology, rng_);
  build_providers();
  install_policies();
  build_clients();
  build_attackers();
  install_faults();
  prepopulate_fib();
}

void Scenario::prepopulate_fib() {
  if (config_.prepopulate_fib_prefixes == 0) return;
  // Dedicated stream: the workload's rng_ fork sequence must be identical
  // with and without prepopulation (parity).
  util::Rng rng(config_.seed ^ 0xB16FAB1E5ULL);
  std::vector<ndn::Name> prefixes;
  prefixes.reserve(config_.prepopulate_fib_prefixes);
  for (std::size_t i = 0; i < config_.prepopulate_fib_prefixes; ++i) {
    // First component "xfib<hex>": never a prefix of the workload's
    // /providerN/... names, so these entries are forwarding-invisible.
    char head[32];
    std::snprintf(head, sizeof(head), "xfib%016llx",
                  static_cast<unsigned long long>(rng()));
    ndn::Name name = ndn::Name().append(head);
    const std::uint64_t extra = rng.uniform(3);  // depth 1–3
    for (std::uint64_t d = 0; d < extra; ++d) {
      name = name.append_number(rng.uniform(1 << 20));
    }
    prefixes.push_back(std::move(name));
  }
  auto install = [&](net::NodeId id) {
    ndn::Fib& fib = network_->node(id).fib();
    for (const ndn::Name& prefix : prefixes) {
      // Face 0 always exists on a router (its first adjacency); the
      // enormous cost keeps the hop ordered behind any real route.
      fib.add_route(prefix, 0, 0xFFFFFF);
    }
  };
  for (const net::NodeId id : network_->edge_routers()) install(id);
  for (const net::NodeId id : network_->core_routers()) install(id);
}

void Scenario::build_providers() {
  workload::ProviderConfig provider_config = config_.provider;
  // Client-side enforcement and plain NDN serve everyone; the others
  // authenticate at the provider.
  if (config_.policy == PolicyKind::kClientSideAc ||
      config_.policy == PolicyKind::kNoAccessControl) {
    provider_config.enforce_access_control = false;
  }
  std::size_t index = 0;
  for (const net::NodeId id : network_->providers()) {
    providers_.push_back(std::make_unique<workload::ProviderApp>(
        network_->node(id), "/provider" + std::to_string(index),
        provider_config, anchors_, rng_.fork()));
    network_->install_routes(providers_.back()->prefix(), id);
    provider_ptrs_.push_back(providers_.back().get());
    ++index;
  }
}

void Scenario::install_policies() {
  if (config_.enable_traitor_tracing) {
    tracer_ = std::make_unique<core::TraitorTracer>(
        config_.traitor_tracing, [this](const std::string& locator) {
          for (auto& provider : providers_) {
            provider->issuer().revoke(locator);
          }
        });
  }

  if (config_.policy == PolicyKind::kProbBf) {
    prob_bf_shared_ = std::make_shared<baselines::ProbBfPolicy::Shared>();
    // Populated in build_clients(); the shared set is read lazily on the
    // first packet each router sees.
  }

  auto make_router_policy =
      [&](bool is_edge) -> std::unique_ptr<ndn::AccessControlPolicy> {
    switch (config_.policy) {
      case PolicyKind::kTactic:
        if (is_edge) {
          auto policy = std::make_unique<core::EdgeTacticPolicy>(
              config_.tactic, anchors_, config_.compute, rng_.fork());
          policy->set_traitor_tracer(tracer_.get());
          return policy;
        }
        return std::make_unique<core::CoreTacticPolicy>(
            config_.tactic, anchors_, config_.compute, rng_.fork());
      case PolicyKind::kNoAccessControl:
      case PolicyKind::kClientSideAc:
        return std::make_unique<ndn::NullPolicy>();
      case PolicyKind::kPerRequestAuth:
        return std::make_unique<baselines::PerRequestAuthPolicy>(anchors_);
      case PolicyKind::kProbBf:
        return std::make_unique<baselines::ProbBfPolicy>(
            prob_bf_shared_, config_.tactic.bloom, config_.compute,
            rng_.fork());
    }
    return std::make_unique<ndn::NullPolicy>();
  };

  for (const net::NodeId id : network_->edge_routers()) {
    network_->node(id).set_policy(make_router_policy(/*is_edge=*/true));
    network_->node(id).set_pit_capacity(config_.router_pit_capacity);
  }
  for (const net::NodeId id : network_->core_routers()) {
    network_->node(id).set_policy(make_router_policy(/*is_edge=*/false));
    network_->node(id).set_pit_capacity(config_.router_pit_capacity);
  }
}

void Scenario::build_clients() {
  // Clients are enrolled at every provider with an access level that
  // covers the whole catalog (base + 1 also covers high-AL objects).
  workload::ClientConfig client_config = config_.client;
  if (client_config.verify_content && client_config.verify_pki == nullptr) {
    client_config.verify_pki = &anchors_.pki;
  }
  for (const net::NodeId id : network_->clients()) {
    ndn::Forwarder& node = network_->node(id);
    // Default route: everything up the wireless link toward the edge
    // router; the node's egress policy stamps the AP's identity into the
    // rolling access path.
    node.fib().add_route(
        ndn::Name("/"),
        network_->face_between(id, network_->edge_router_of(id)));
    node.set_policy(
        std::make_unique<core::ApPolicy>(network_->ap_of(id).label));
    auto client = std::make_unique<workload::ClientApp>(
        node, provider_ptrs_, client_config,
        popularity(client_config.zipf_alpha), rng_.fork());
    const std::string locator =
        workload::ProviderApp::client_key_locator(client->label());
    for (auto& provider : providers_) {
      provider->issuer().enroll(
          locator, config_.provider.catalog.base_access_level + 1);
    }
    if (prob_bf_shared_) prob_bf_shared_->authorized.insert(locator);

    // Samples add to the series in dispatch order, the defined
    // accumulation order: per-bucket sums depend on it, and the goldens
    // in tests/golden/ pin it.
    client->on_latency_sample = [this](event::Time when, double latency) {
      metrics_.latency.add(event::to_seconds(when), latency);
    };
    client->on_tag_request = [this](event::Time when) {
      metrics_.tag_requests.add_event(event::to_seconds(when));
    };
    client->on_tag_receive = [this](event::Time when) {
      metrics_.tag_receives.add_event(event::to_seconds(when));
    };
    client->on_recovery_sample = [this](event::Time when, double latency) {
      metrics_.recovery_latency.add(event::to_seconds(when), latency);
    };
    client->start();
    clients_.push_back(std::move(client));
  }
}

util::ZipfDist Scenario::popularity(double alpha) {
  for (const util::ZipfDist& law : popularity_) {
    if (law.alpha() == alpha) return law;
  }
  return popularity_.emplace_back(
      workload::popularity_law(provider_ptrs_, alpha));
}

workload::AttackerApp::TagStrategy Scenario::make_strategy(
    workload::AttackerMode mode, std::size_t attacker_index,
    net::NodeId node_id) {
  using workload::AttackerMode;
  const std::string label = network_->node(node_id).info().label;
  const std::string locator =
      workload::ProviderApp::client_key_locator(label);
  // Access path the attacker's own location would accumulate (so tags we
  // mint for it stay AP-consistent and only the intended check trips).
  const std::uint64_t own_ap =
      core::entity_id_hash(network_->ap_of(node_id).label);

  switch (mode) {
    case AttackerMode::kNoTag:
      return workload::attacker_strategies::no_tag();

    case AttackerMode::kForgedTag: {
      if (!forger_key_) {
        // One forger key shared by all forging attackers (keygen once).
        auto pair = crypto::generate_rsa_keypair(
            rng_, config_.provider.key_bits);
        forger_key_ = std::make_shared<const crypto::RsaPrivateKey>(
            pair.private_key);
      }
      return workload::attacker_strategies::forged(
          forger_key_, label, config_.provider.tag_validity);
    }

    case AttackerMode::kForgedTagChurn: {
      if (!forger_key_) {
        auto pair = crypto::generate_rsa_keypair(
            rng_, config_.provider.key_bits);
        forger_key_ = std::make_shared<const crypto::RsaPrivateKey>(
            pair.private_key);
      }
      return workload::attacker_strategies::forged_churn(
          forger_key_, label, config_.provider.tag_validity);
    }

    case AttackerMode::kExpiredTag: {
      // Genuinely provider-signed tags that expired before the run: a
      // stale credential kept after revocation.  One per provider.
      auto stale = std::make_shared<
          std::unordered_map<std::string, core::TagPtr>>();
      for (auto& provider : providers_) {
        provider->issuer().enroll(locator, 0xFFFFFFFF);
        core::TagPtr tag = provider->issuer().issue(
            locator, own_ap, -2 * config_.provider.tag_validity);
        provider->issuer().revoke(locator);
        if (tag) (*stale)[provider->prefix().to_uri()] = tag;
      }
      return [stale](const ndn::Name& content,
                     event::Time) -> core::TagPtr {
        const auto it = stale->find(content.head_uri());
        return it == stale->end() ? core::TagPtr{} : it->second;
      };
    }

    case AttackerMode::kInsufficientAccessLevel: {
      // Legitimately enrolled — at access level 0, below every protected
      // object's level.  Tags are re-minted on expiry.
      auto mints = std::make_shared<
          std::unordered_map<std::string, core::TagPtr>>();
      std::vector<workload::ProviderApp*> providers = provider_ptrs_;
      for (auto* provider : providers) provider->issuer().enroll(locator, 0);
      return [mints, providers, locator,
              own_ap](const ndn::Name& content,
                      event::Time now) -> core::TagPtr {
        const std::string prefix = content.head_uri();
        auto& slot = (*mints)[prefix];
        if (!slot || slot->expiry() <= now) {
          for (auto* provider : providers) {
            if (provider->prefix().to_uri() == prefix) {
              slot = provider->issuer().issue(locator, own_ap, now);
              break;
            }
          }
        }
        return slot;
      };
    }

    case AttackerMode::kWrongProvider: {
      // A valid tag from one provider, presented for all the others'
      // content (threat: prefix misuse).  For the enrolled provider
      // itself the strategy sends no tag, so the attacker never succeeds
      // legitimately.
      workload::ProviderApp* home =
          provider_ptrs_[attacker_index % provider_ptrs_.size()];
      home->issuer().enroll(locator, 0xFFFFFFFF);
      auto cached = std::make_shared<core::TagPtr>();
      const std::string home_prefix = home->prefix().to_uri();
      return [home, cached, locator, own_ap, home_prefix](
                 const ndn::Name& content, event::Time now) -> core::TagPtr {
        if (content.head_uri() == home_prefix) return {};
        if (!*cached || (*cached)->expiry() <= now) {
          *cached = home->issuer().issue(locator, own_ap, now);
        }
        return *cached;
      };
    }

    case AttackerMode::kSharedTag: {
      // Borrow a client's live tag — a client attached to a *different*
      // AP, so access-path enforcement (when on) catches the sharing.
      std::vector<workload::ClientApp*> victims;
      for (std::size_t i = 0; i < clients_.size(); ++i) {
        const net::NodeId victim_node = network_->clients()[i];
        if (network_->ap_index_of(victim_node) !=
            network_->ap_index_of(node_id)) {
          victims.push_back(clients_[i].get());
        }
      }
      if (victims.empty() && !clients_.empty()) {
        victims.push_back(clients_[0].get());
      }
      std::vector<workload::ProviderApp*> providers = provider_ptrs_;
      workload::ClientApp* victim =
          victims.empty() ? nullptr
                          : victims[attacker_index % victims.size()];
      return [victim, providers](const ndn::Name& content,
                                 event::Time) -> core::TagPtr {
        if (victim == nullptr) return {};
        for (std::size_t p = 0; p < providers.size(); ++p) {
          if (providers[p]->prefix().is_prefix_of(content)) {
            return victim->current_tag(p);
          }
        }
        return {};
      };
    }
  }
  return workload::attacker_strategies::no_tag();
}

void Scenario::build_attackers() {
  std::size_t index = 0;
  for (const net::NodeId id : network_->attackers()) {
    ndn::Forwarder& node = network_->node(id);
    node.fib().add_route(
        ndn::Name("/"),
        network_->face_between(id, network_->edge_router_of(id)));
    node.set_policy(
        std::make_unique<core::ApPolicy>(network_->ap_of(id).label));
    const workload::AttackerMode mode =
        config_.attacker_mix.empty()
            ? workload::AttackerMode::kNoTag
            : config_.attacker_mix[index % config_.attacker_mix.size()];
    // Fork before make_strategy, which may draw a forger key from rng_:
    // the draw order must not depend on argument evaluation order.
    util::Rng attacker_rng = rng_.fork();
    auto attacker = std::make_unique<workload::AttackerApp>(
        node, provider_ptrs_, config_.attacker,
        popularity(config_.attacker.zipf_alpha),
        make_strategy(mode, index, id), attacker_rng);
    attacker->start();
    attackers_.push_back(std::move(attacker));
    ++index;
  }
}

void Scenario::set_adjacency_up(net::NodeId a, net::NodeId b, bool up,
                                bool reconverge_now) {
  network_->set_adjacency_up(a, b, up);
  if (reconverge_now) reconverge();
}

void Scenario::reconverge() {
  for (std::size_t i = 0; i < providers_.size(); ++i) {
    network_->install_routes(providers_[i]->prefix(),
                             network_->providers()[i]);
  }
}

void Scenario::revoke_client_eagerly(const std::string& client_key_locator) {
  const std::size_t router_count = network_->edge_routers().size() +
                                   network_->core_routers().size();
  for (auto& provider : providers_) {
    provider->issuer().revoke(client_key_locator);
    if (const core::TagPtr tag =
            provider->issuer().last_issued(client_key_locator)) {
      anchors_.revocations.blacklist(*tag, router_count);
    }
  }
}

void Scenario::move_user(net::NodeId user, std::size_t new_ap_index) {
  network_->reattach_user(user, new_ap_index);
  ndn::Forwarder& node = network_->node(user);
  // New wireless segment: new egress identity and new default route.
  node.set_policy(
      std::make_unique<core::ApPolicy>(network_->ap_of(user).label));
  node.fib().add_route(
      ndn::Name("/"),
      network_->face_between(user, network_->edge_router_of(user)));
}

void Scenario::stop_workloads() {
  for (auto& client : clients_) client->stop();
  for (auto& attacker : attackers_) attacker->stop();
}

event::Time Scenario::drain(event::Time grace) {
  stop_workloads();
  return scheduler_.run_until(scheduler_.now() + grace);
}

const Metrics& Scenario::run() {
  if (ran_) throw std::logic_error("Scenario: run() called twice");
  ran_ = true;
  scheduler_.run_until(config_.duration);
  metrics_ = harvest();
  return metrics_;
}

Metrics Scenario::harvest() {
  Metrics out;
  out.latency = metrics_.latency;
  out.tag_requests = metrics_.tag_requests;
  out.tag_receives = metrics_.tag_receives;
  out.recovery_latency = metrics_.recovery_latency;

  const auto harvest_user = [](TrafficTotals& totals,
                                const workload::UserCounters& c) {
#define USER_STAT(counter, total, print) totals.total += c.counter;
#include "workload/user_stats.def"
  };
  for (const auto& client : clients_) {
    harvest_user(out.clients, client->counters());
  }
  for (const auto& attacker : attackers_) {
    harvest_user(out.attackers, attacker->counters());
  }

  auto harvest_router = [&](net::NodeId id, RouterOps& ops,
                            std::vector<std::uint64_t>& resets_samples) {
    ndn::Forwarder& node = network_->node(id);
    out.cs_hits += node.cs().hits();
    out.cs_misses += node.cs().misses();
    out.pit_evictions += node.counters().pit_evictions;
#define FORWARDER_COUNTER(name, source, layer) ops.name += node.source;
#include "tactic/router_stats.def"
    const auto* tactic =
        dynamic_cast<const core::TacticRouterPolicy*>(&node.policy());
    if (tactic != nullptr) {
      const auto& c = tactic->counters();
#define ENGINE_COUNTER(name, how, print, layer) \
  merge(ops.name, c.name, Merge::how);
#define ENGINE_TIME(name, seconds, print, layer) \
  ops.seconds += event::to_seconds(c.name);
#define ENGINE_HISTOGRAM(name, stem, layer) ops.name.merge(c.name);
#define POLICY_STAT(name, type, how, print, layer) \
  merge(ops.name, tactic->name(), Merge::how);
#include "tactic/router_stats.def"
      resets_samples.insert(resets_samples.end(),
                            c.requests_per_reset.begin(),
                            c.requests_per_reset.end());
      return;
    }
    // The ProbBf baseline's engine also charges compute, but only its
    // operation counts are this baseline's Fig. 7 figures.
    const auto* prob_bf =
        dynamic_cast<const baselines::ProbBfPolicy*>(&node.policy());
    if (prob_bf != nullptr) {
      const auto& c = prob_bf->counters();
      ops.bf_lookups += c.bf_lookups;
      ops.bf_insertions += c.bf_insertions;
      ops.sig_verifications += c.sig_verifications;
    }
  };
  for (const net::NodeId id : network_->edge_routers()) {
    harvest_router(id, out.edge_ops, out.edge_requests_per_reset);
  }
  for (const net::NodeId id : network_->core_routers()) {
    harvest_router(id, out.core_ops, out.core_requests_per_reset);
  }

  for (const auto& provider : providers_) {
    out.provider_sig_verifications += provider->counters().sig_verifications;
    out.provider_tags_issued += provider->counters().tags_issued;
    out.provider_content_served += provider->counters().content_served;
  }

  const net::LinkCounters links = network_->total_link_counters();
  out.link_bytes_sent = links.bytes_sent;
  out.link_frames_dropped = links.frames_dropped();
  out.link_dropped_queue_full = links.dropped_queue_full;
  out.link_refused_link_down = links.refused_link_down;
  out.link_frames_lost = links.frames_lost;
  out.link_frames_corrupted = links.frames_corrupted;

  for (net::NodeId id = 0; id < network_->node_count(); ++id) {
    const ndn::ForwarderCounters& c = network_->node(id).counters();
    out.node_crashes += c.crashes;
    out.node_restarts += c.restarts;
    out.packets_dropped_while_down += c.dropped_while_down;
    out.corrupt_frames_rejected += c.corrupt_frames_rejected;
  }
  return out;
}

}  // namespace tactic::sim
