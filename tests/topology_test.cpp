// Tests for graph algorithms, the scale-free generator, the Table III
// presets, and the instantiated ISP network (roles, wiring, routing).

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "topology/graph.hpp"
#include "topology/isp.hpp"
#include "topology/network.hpp"

namespace tactic::topology {
namespace {

// ---------------------------------------------------------------------------
// Graph basics
// ---------------------------------------------------------------------------

TEST(Graph, AddEdgeIgnoresDuplicatesAndLoops) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // duplicate
  g.add_edge(2, 2);  // self-loop
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, OutOfRangeEdgeThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_FALSE(g.connected());  // node 3 isolated
  g.add_edge(2, 3);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, BfsDistancesOnPath) {
  Graph g(5);
  for (std::size_t i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  const auto dist = bfs_distances(g, 0);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(dist[i], i);
}

TEST(Graph, BfsUnreachableIsMax) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], std::numeric_limits<std::size_t>::max());
}

TEST(Graph, NextHopFollowsShortestPath) {
  // Diamond: 0-1, 0-2, 1-3, 2-3; shortest 0->3 via lowest-id neighbor 1.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto next = next_hop_toward(g, 3);
  EXPECT_EQ(next[0], 1u);  // tie broken toward lower id
  EXPECT_EQ(next[1], 3u);
  EXPECT_EQ(next[2], 3u);
  EXPECT_EQ(next[3], std::numeric_limits<std::size_t>::max());
}

TEST(Graph, NextHopDeterministic) {
  util::Rng rng(5);
  const Graph g = barabasi_albert(rng, 50, 2);
  const auto a = next_hop_toward(g, 7);
  const auto b = next_hop_toward(g, 7);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Barabási–Albert
// ---------------------------------------------------------------------------

TEST(BarabasiAlbert, ProducesConnectedGraphOfRightSize) {
  util::Rng rng(42);
  const Graph g = barabasi_albert(rng, 100, 2);
  EXPECT_EQ(g.node_count(), 100u);
  EXPECT_TRUE(g.connected());
  // Seed clique (3 edges) + 97 nodes x 2 attachments.
  EXPECT_EQ(g.edge_count(), 3u + 97u * 2u);
}

TEST(BarabasiAlbert, MinimumDegreeIsAttach) {
  util::Rng rng(43);
  const Graph g = barabasi_albert(rng, 200, 3);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    EXPECT_GE(g.degree(i), 3u);
  }
}

TEST(BarabasiAlbert, DegreeDistributionIsHeavyTailed) {
  util::Rng rng(44);
  const Graph g = barabasi_albert(rng, 500, 2);
  std::size_t max_degree = 0;
  double mean_degree = 0;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    max_degree = std::max(max_degree, g.degree(i));
    mean_degree += static_cast<double>(g.degree(i));
  }
  mean_degree /= static_cast<double>(g.node_count());
  // Scale-free hubs: the max degree dwarfs the mean (~4).
  EXPECT_GT(static_cast<double>(max_degree), 5.0 * mean_degree);
}

TEST(BarabasiAlbert, InvalidParamsThrow) {
  util::Rng rng(45);
  EXPECT_THROW(barabasi_albert(rng, 2, 2), std::invalid_argument);
  EXPECT_THROW(barabasi_albert(rng, 10, 0), std::invalid_argument);
}

TEST(BarabasiAlbert, DeterministicForSeed) {
  util::Rng a(7), b(7);
  const Graph ga = barabasi_albert(a, 100, 2);
  const Graph gb = barabasi_albert(b, 100, 2);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ga.neighbors(i), gb.neighbors(i));
  }
}

// ---------------------------------------------------------------------------
// Table III presets
// ---------------------------------------------------------------------------

// Every field is a size_t so the struct has no padding: ctest names each
// case after the printed bytes of its parameter, and padding bytes are
// indeterminate, which made the case names change from run to run.
struct PresetExpectation {
  std::size_t index;
  std::size_t core, edge, clients, attackers;
};

class PaperPresets : public ::testing::TestWithParam<PresetExpectation> {};

TEST_P(PaperPresets, MatchesTableIII) {
  const auto expected = GetParam();
  const TopologyParams params =
      paper_topology(static_cast<int>(expected.index));
  EXPECT_EQ(params.core_routers, expected.core);
  EXPECT_EQ(params.edge_routers, expected.edge);
  EXPECT_EQ(params.clients, expected.clients);
  EXPECT_EQ(params.attackers, expected.attackers);
  EXPECT_EQ(params.providers, 10u);
}

INSTANTIATE_TEST_SUITE_P(TableIII, PaperPresets,
                         ::testing::Values(
                             PresetExpectation{1, 80, 20, 35, 15},
                             PresetExpectation{2, 180, 20, 71, 29},
                             PresetExpectation{3, 370, 30, 143, 57},
                             PresetExpectation{4, 560, 40, 213, 87}));

TEST(PaperPresets, InvalidIndexThrows) {
  EXPECT_THROW(paper_topology(0), std::out_of_range);
  EXPECT_THROW(paper_topology(5), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Network construction
// ---------------------------------------------------------------------------

TEST(Network, BuildsAllRoles) {
  event::Scheduler sched;
  util::Rng rng(1);
  const TopologyParams params = paper_topology(1);
  Network net(sched, params, rng);
  EXPECT_EQ(net.core_routers().size(), 80u);
  EXPECT_EQ(net.edge_routers().size(), 20u);
  EXPECT_EQ(net.providers().size(), 10u);
  EXPECT_EQ(net.clients().size(), 35u);
  EXPECT_EQ(net.attackers().size(), 15u);
  EXPECT_EQ(net.access_points().size(), 20u * params.aps_per_edge);
  // APs are L2 segments, not forwarder nodes.
  EXPECT_EQ(net.node_count(), 80u + 20u + 10u + 35u + 15u);
}

TEST(Network, RolesHaveExpectedKinds) {
  event::Scheduler sched;
  util::Rng rng(2);
  Network net(sched, paper_topology(1), rng);
  for (net::NodeId id : net.edge_routers()) {
    EXPECT_EQ(net.node(id).info().kind, net::NodeKind::kEdgeRouter);
  }
  for (net::NodeId id : net.clients()) {
    EXPECT_EQ(net.node(id).info().kind, net::NodeKind::kClient);
  }
}

TEST(Network, EdgeRoutersAreLowDegreeBackboneNodes) {
  event::Scheduler sched;
  util::Rng rng(3);
  Network net(sched, paper_topology(1), rng);
  // Providers attach to core routers only.
  for (net::NodeId id : net.providers()) {
    const net::NodeId gateway = net.gateway_of(id);
    EXPECT_EQ(net.node(gateway).info().kind, net::NodeKind::kCoreRouter);
  }
}

TEST(Network, UsersHangBehindApsBehindEdges) {
  event::Scheduler sched;
  util::Rng rng(4);
  Network net(sched, paper_topology(1), rng);
  for (net::NodeId id : net.clients()) {
    const Network::AccessPoint& ap = net.ap_of(id);
    EXPECT_FALSE(ap.label.empty());
    // The user's NDN attachment point is the AP's edge router.
    EXPECT_EQ(net.edge_router_of(id), ap.edge_router);
    EXPECT_EQ(net.node(ap.edge_router).info().kind,
              net::NodeKind::kEdgeRouter);
    EXPECT_EQ(&net.access_points()[net.ap_index_of(id)], &ap);
  }
  for (net::NodeId id : net.attackers()) {
    EXPECT_EQ(net.node(net.ap_of(id).edge_router).info().kind,
              net::NodeKind::kEdgeRouter);
  }
}

TEST(Network, ApLabelsAreUnique) {
  event::Scheduler sched;
  util::Rng rng(4);
  Network net(sched, paper_topology(1), rng);
  std::set<std::string> labels;
  for (const auto& ap : net.access_points()) {
    EXPECT_TRUE(labels.insert(ap.label).second);
  }
}

TEST(Network, FaceBetweenAdjacentOnly) {
  event::Scheduler sched;
  util::Rng rng(5);
  Network net(sched, paper_topology(1), rng);
  const net::NodeId client = net.clients()[0];
  const net::NodeId edge = net.edge_router_of(client);
  EXPECT_NO_THROW(net.face_between(client, edge));
  EXPECT_NO_THROW(net.face_between(edge, client));
  // A client is never adjacent to a provider.
  EXPECT_THROW(net.face_between(client, net.providers()[0]),
               std::invalid_argument);
}

TEST(Network, InstallRoutesReachesEveryNode) {
  event::Scheduler sched;
  util::Rng rng(6);
  Network net(sched, paper_topology(1), rng);
  const net::NodeId producer = net.providers()[0];
  net.install_routes(ndn::Name("/provider0"), producer);
  // Every node except the producer has a route for the prefix.
  for (net::NodeId id = 0; id < net.node_count(); ++id) {
    if (id == producer) continue;
    EXPECT_NE(net.node(id).fib().lookup(ndn::Name("/provider0/obj1/c1")),
              nullptr)
        << "node " << id;
  }
}

TEST(Network, RoutesConvergeTowardProducer) {
  event::Scheduler sched;
  util::Rng rng(7);
  Network net(sched, paper_topology(1), rng);
  const net::NodeId producer = net.providers()[3];
  net.install_routes(ndn::Name("/provider3"), producer);
  // Follow next-hops from a client; must reach the producer within the
  // node count (no loops).
  net::NodeId current = net.clients()[0];
  std::set<net::NodeId> visited;
  while (current != producer) {
    ASSERT_TRUE(visited.insert(current).second) << "routing loop";
    const auto* route =
        net.node(current).fib().lookup(ndn::Name("/provider3/x"));
    ASSERT_NE(route, nullptr);
    // Find the neighbor this face leads to by scanning adjacency.
    net::NodeId next = net::kInvalidNode;
    for (net::NodeId candidate = 0; candidate < net.node_count();
         ++candidate) {
      if (candidate == current) continue;
      try {
        if (net.face_between(current, candidate) == route->next_hop()) {
          next = candidate;
          break;
        }
      } catch (const std::invalid_argument&) {
      }
    }
    ASSERT_NE(next, net::kInvalidNode);
    current = next;
  }
  SUCCEED();
}

TEST(Network, DeterministicForSeed) {
  event::Scheduler s1, s2;
  util::Rng r1(9), r2(9);
  Network a(s1, paper_topology(1), r1);
  Network b(s2, paper_topology(1), r2);
  ASSERT_EQ(a.node_count(), b.node_count());
  for (net::NodeId id = 0; id < a.node_count(); ++id) {
    EXPECT_EQ(a.node(id).info().kind, b.node(id).info().kind);
    EXPECT_EQ(a.node(id).info().label, b.node(id).info().label);
  }
}

TEST(Network, EmptyNetworkHandBuilt) {
  event::Scheduler sched;
  Network net = Network::empty(sched);
  const net::NodeId a =
      net.add_node(net::NodeKind::kCoreRouter, "a", 10);
  const net::NodeId b =
      net.add_node(net::NodeKind::kCoreRouter, "b", 10);
  net.connect(a, b, net::core_link_params());
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_NO_THROW(net.face_between(a, b));
}

TEST(Network, ConnectRejectsBadEndpoints) {
  event::Scheduler sched;
  Network net = Network::empty(sched);
  const net::NodeId a = net.add_node(net::NodeKind::kCoreRouter, "a", 0);
  EXPECT_THROW(net.connect(a, a, net::core_link_params()),
               std::invalid_argument);
  EXPECT_THROW(net.connect(a, 99, net::core_link_params()),
               std::invalid_argument);
}

TEST(Network, AdjacencyUpDownControl) {
  event::Scheduler sched;
  Network net = Network::empty(sched);
  const net::NodeId a = net.add_node(net::NodeKind::kCoreRouter, "a", 0);
  const net::NodeId b = net.add_node(net::NodeKind::kCoreRouter, "b", 0);
  const net::NodeId c = net.add_node(net::NodeKind::kCoreRouter, "c", 0);
  net.connect(a, b, net::core_link_params());
  EXPECT_TRUE(net.adjacency_up(a, b));
  net.set_adjacency_up(a, b, false);
  EXPECT_FALSE(net.adjacency_up(a, b));
  EXPECT_FALSE(net.adjacency_up(b, a));
  net.set_adjacency_up(a, b, true);
  EXPECT_TRUE(net.adjacency_up(a, b));
  EXPECT_THROW(net.set_adjacency_up(a, c, false), std::invalid_argument);
  EXPECT_THROW(net.adjacency_up(a, c), std::invalid_argument);
}

TEST(Network, InstallRoutesUsesEqualCostMultipath) {
  // Diamond: src - {m1, m2} - dst.  src must get both next hops.
  event::Scheduler sched;
  Network net = Network::empty(sched);
  const net::NodeId src = net.add_node(net::NodeKind::kCoreRouter, "s", 0);
  const net::NodeId m1 = net.add_node(net::NodeKind::kCoreRouter, "m1", 0);
  const net::NodeId m2 = net.add_node(net::NodeKind::kCoreRouter, "m2", 0);
  const net::NodeId dst = net.add_node(net::NodeKind::kProvider, "d", 0);
  net.connect(src, m1, net::core_link_params());
  net.connect(src, m2, net::core_link_params());
  net.connect(m1, dst, net::core_link_params());
  net.connect(m2, dst, net::core_link_params());
  net.install_routes(ndn::Name("/d"), dst);
  const auto* entry = net.node(src).fib().lookup(ndn::Name("/d/x"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->next_hops.size(), 2u);

  // Fail one middle hop and reconverge: a single next hop remains.
  net.set_adjacency_up(src, m1, false);
  net.install_routes(ndn::Name("/d"), dst);
  entry = net.node(src).fib().lookup(ndn::Name("/d/x"));
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->next_hops.size(), 1u);
  EXPECT_EQ(entry->next_hop(), net.face_between(src, m2));
}

TEST(Network, ReattachUserValidation) {
  event::Scheduler sched;
  util::Rng rng(8);
  Network net(sched, paper_topology(1), rng);
  // Reattaching a router is rejected.
  EXPECT_THROW(net.reattach_user(net.core_routers()[0], 0),
               std::invalid_argument);
  // Reattaching a client updates the maps.
  const net::NodeId client = net.clients()[0];
  const std::size_t target =
      (net.ap_index_of(client) + 1) % net.access_points().size();
  net.reattach_user(client, target);
  EXPECT_EQ(net.ap_index_of(client), target);
  EXPECT_EQ(net.edge_router_of(client),
            net.access_points()[target].edge_router);
}

class AllPresetsBuild : public ::testing::TestWithParam<int> {};

TEST_P(AllPresetsBuild, ConstructsAndRoutes) {
  event::Scheduler sched;
  util::Rng rng(100 + GetParam());
  Network net(sched, paper_topology(GetParam()), rng);
  EXPECT_GT(net.node_count(), 0u);
  net.install_routes(ndn::Name("/provider0"), net.providers()[0]);
  EXPECT_NE(net.node(net.clients()[0]).fib().lookup(
                ndn::Name("/provider0/x")),
            nullptr);
}

INSTANTIATE_TEST_SUITE_P(Presets, AllPresetsBuild,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tactic::topology
