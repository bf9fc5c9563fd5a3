#include "topology/network.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace tactic::topology {

Network::Network(event::Scheduler& scheduler) : scheduler_(scheduler) {}

Network Network::empty(event::Scheduler& scheduler) {
  return Network(scheduler);
}

net::NodeId Network::add_node(net::NodeKind kind, const std::string& label,
                              std::size_t cs_capacity) {
  const net::NodeId id = static_cast<net::NodeId>(forwarders_.size());
  forwarders_.push_back(std::make_unique<ndn::Forwarder>(
      scheduler_, net::NodeInfo{id, kind, label}, cs_capacity));
  neighbor_face_.emplace_back();
  neighbors_.emplace_back();
  parent_.push_back(net::kInvalidNode);
  switch (kind) {
    case net::NodeKind::kCoreRouter: core_.push_back(id); break;
    case net::NodeKind::kEdgeRouter: edge_.push_back(id); break;
    case net::NodeKind::kClient: clients_.push_back(id); break;
    case net::NodeKind::kAttacker: attackers_.push_back(id); break;
    case net::NodeKind::kProvider: providers_.push_back(id); break;
    case net::NodeKind::kAccessPoint:
      // APs are link-layer segments, not forwarders; hand-built scenarios
      // may still create forwarder nodes of this kind, tracked nowhere.
      break;
  }
  return id;
}

void Network::connect(net::NodeId a, net::NodeId b,
                      const net::LinkParams& params) {
  if (a >= forwarders_.size() || b >= forwarders_.size() || a == b) {
    throw std::invalid_argument("Network::connect: bad endpoints");
  }
  if (neighbor_face_[a].count(b) > 0) return;  // already connected

  links_.push_back(std::make_unique<net::Link>(scheduler_, params));
  net::Link* link_ab = links_.back().get();
  links_.push_back(std::make_unique<net::Link>(scheduler_, params));
  net::Link* link_ba = links_.back().get();

  // A forwarder's next face ID is its face count, so both IDs are known
  // before either face exists: each delivery closure holds its receiver
  // and the face a frame arrives on, and no frame looks anything up.
  ndn::Forwarder* const node_a = forwarders_[a].get();
  ndn::Forwarder* const node_b = forwarders_[b].get();
  const auto face_a = static_cast<ndn::FaceId>(node_a->face_count());
  const auto face_b = static_cast<ndn::FaceId>(node_b->face_count());
  node_a->add_link_face(link_ab, [node_b, face_b](ndn::PacketVariant&& p) {
    node_b->receive(face_b, std::move(p));
  });
  node_b->add_link_face(link_ba, [node_a, face_a](ndn::PacketVariant&& p) {
    node_a->receive(face_a, std::move(p));
  });
  neighbor_face_[a][b] = face_a;
  neighbor_face_[b][a] = face_b;
  neighbors_[a].push_back(b);
  neighbors_[b].push_back(a);
  directed_link_[(static_cast<std::uint64_t>(a) << 32) | b] = link_ab;
  directed_link_[(static_cast<std::uint64_t>(b) << 32) | a] = link_ba;
}

void Network::set_adjacency_up(net::NodeId a, net::NodeId b, bool up) {
  const auto ab = directed_link_.find((static_cast<std::uint64_t>(a) << 32) | b);
  const auto ba = directed_link_.find((static_cast<std::uint64_t>(b) << 32) | a);
  if (ab == directed_link_.end() || ba == directed_link_.end()) {
    throw std::invalid_argument("set_adjacency_up: not adjacent");
  }
  ab->second->set_up(up);
  ba->second->set_up(up);
}

bool Network::adjacency_up(net::NodeId a, net::NodeId b) const {
  const auto it =
      directed_link_.find((static_cast<std::uint64_t>(a) << 32) | b);
  if (it == directed_link_.end()) {
    throw std::invalid_argument("adjacency_up: not adjacent");
  }
  return it->second->up();
}

ndn::FaceId Network::face_between(net::NodeId from, net::NodeId to) const {
  const auto& faces = neighbor_face_.at(from);
  const auto it = faces.find(to);
  if (it == faces.end()) {
    throw std::invalid_argument("Network::face_between: not adjacent");
  }
  return it->second;
}

void Network::install_routes(const ndn::Name& prefix,
                             net::NodeId producer_node) {
  // Shortest paths over the live node graph (users are leaves, so routes
  // never cut through them); down adjacencies are excluded, so calling
  // this again after set_adjacency_up models routing reconvergence.
  Graph graph(node_count());
  for (net::NodeId a = 0; a < node_count(); ++a) {
    for (net::NodeId b : neighbors_[a]) {
      if (a < b && adjacency_up(a, b)) graph.add_edge(a, b);
    }
  }
  const auto dist = bfs_distances(graph, producer_node);
  constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();
  for (net::NodeId id = 0; id < node_count(); ++id) {
    if (id == producer_node) continue;
    if (dist[id] == kUnreached) {
      forwarders_[id]->fib().remove_route(prefix);
      continue;
    }
    // Every neighbor strictly closer to the producer is a loop-free
    // equal-cost next hop.
    std::vector<ndn::Fib::NextHop> hops;
    for (const net::NodeId nbr : neighbors_[id]) {
      if (dist[nbr] != kUnreached && dist[nbr] + 1 == dist[id] &&
          adjacency_up(id, nbr)) {
        hops.push_back(ndn::Fib::NextHop{
            face_between(id, nbr), static_cast<std::uint32_t>(dist[id])});
      }
    }
    forwarders_[id]->fib().set_routes(prefix, std::move(hops));
  }
}

void Network::reattach_user(net::NodeId user, std::size_t ap_index) {
  const AccessPoint& ap = aps_.at(ap_index);
  const net::NodeKind kind = forwarders_.at(user)->info().kind;
  if (kind != net::NodeKind::kClient && kind != net::NodeKind::kAttacker) {
    throw std::invalid_argument("reattach_user: node is not a user");
  }
  connect(user, ap.edge_router, params_.edge_link);  // no-op if adjacent
  parent_.at(user) = ap.edge_router;
  user_ap_[user] = ap_index;
}

net::LinkCounters Network::total_link_counters() const {
  net::LinkCounters total;
  for (const auto& link : links_) {
    const net::LinkCounters& c = link->counters();
    total.frames_sent += c.frames_sent;
    total.bytes_sent += c.bytes_sent;
    total.dropped_queue_full += c.dropped_queue_full;
    total.refused_link_down += c.refused_link_down;
    total.frames_lost += c.frames_lost;
    total.frames_corrupted += c.frames_corrupted;
  }
  return total;
}

net::Link& Network::directed_link(net::NodeId from, net::NodeId to) {
  const auto it =
      directed_link_.find((static_cast<std::uint64_t>(from) << 32) | to);
  if (it == directed_link_.end()) {
    throw std::invalid_argument("directed_link: not adjacent");
  }
  return *it->second;
}

void Network::install_link_faults(const net::LinkFaultParams& faults,
                                  bool wireless, util::Rng& rng) {
  if (!faults.any()) return;
  const auto is_user = [&](net::NodeId id) {
    const net::NodeKind kind = forwarders_[id]->info().kind;
    return kind == net::NodeKind::kClient ||
           kind == net::NodeKind::kAttacker;
  };
  // Walk nodes then neighbors (attachment order) — NOT the unordered
  // directed-link map — so the fork order is deterministic.
  for (net::NodeId from = 0; from < node_count(); ++from) {
    for (const net::NodeId to : neighbors_[from]) {
      if ((is_user(from) || is_user(to)) != wireless) continue;
      directed_link(from, to).set_fault_model(faults, rng.fork());
    }
  }
}

Network::Network(event::Scheduler& scheduler, const TopologyParams& params,
                 util::Rng& rng)
    : scheduler_(scheduler), params_(params) {
  const std::size_t backbone_count =
      params.core_routers + params.edge_routers;
  if (params.edge_routers == 0 || params.core_routers == 0) {
    throw std::invalid_argument("Network: need core and edge routers");
  }

  // 1. Scale-free backbone; the lowest-degree routers become the edge.
  const Graph backbone = barabasi_albert(rng, backbone_count,
                                         params.ba_attach);
  std::vector<std::size_t> order(backbone_count);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (backbone.degree(a) != backbone.degree(b)) {
      return backbone.degree(a) < backbone.degree(b);
    }
    return a < b;
  });
  std::vector<bool> is_edge(backbone_count, false);
  for (std::size_t i = 0; i < params.edge_routers; ++i) is_edge[order[i]] = true;

  for (std::size_t i = 0; i < backbone_count; ++i) {
    if (is_edge[i]) {
      add_node(net::NodeKind::kEdgeRouter, "edge" + std::to_string(i),
               params.edge_cs_capacity);
    } else {
      add_node(net::NodeKind::kCoreRouter, "core" + std::to_string(i),
               params.core_cs_capacity);
    }
  }
  for (std::size_t a = 0; a < backbone_count; ++a) {
    for (std::size_t b : backbone.neighbors(a)) {
      if (a < b) {
        connect(static_cast<net::NodeId>(a), static_cast<net::NodeId>(b),
                params.core_link);
      }
    }
  }

  // 2. Providers hang off random core routers.
  for (std::size_t i = 0; i < params.providers; ++i) {
    const net::NodeId id =
        add_node(net::NodeKind::kProvider, "provider" + std::to_string(i),
                 /*cs_capacity=*/0);
    const net::NodeId gateway = core_[rng.uniform(core_.size())];
    connect(id, gateway, params.core_link);
    parent_[id] = gateway;
  }

  // 3. Wireless access points: L2 segment identities per edge router.
  for (const net::NodeId edge_router : edge_) {
    for (std::size_t i = 0; i < params.aps_per_edge; ++i) {
      aps_.push_back(
          AccessPoint{"ap" + std::to_string(aps_.size()), edge_router});
    }
  }

  // 4. Clients and attackers behind random APs: the NDN attachment is a
  // dedicated wireless-edge link to the AP's edge router (one face per
  // station), the AP itself being the segment the access path identifies.
  auto attach_user = [&](net::NodeKind kind, const std::string& label) {
    const net::NodeId id = add_node(kind, label, /*cs_capacity=*/0);
    const std::size_t ap = rng.uniform(aps_.size());
    connect(id, aps_[ap].edge_router, params.edge_link);
    parent_[id] = aps_[ap].edge_router;
    user_ap_[id] = ap;
  };
  for (std::size_t i = 0; i < params.clients; ++i) {
    attach_user(net::NodeKind::kClient, "client" + std::to_string(i));
  }
  for (std::size_t i = 0; i < params.attackers; ++i) {
    attach_user(net::NodeKind::kAttacker, "attacker" + std::to_string(i));
  }
}

}  // namespace tactic::topology
