// Unit tests for the Graph core: CSR layout, invariants, versioning, and the
// edge order read back from the CSR rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dynamic/dynamic_network.h"
#include "graph/builders.h"
#include "graph/conductance.h"
#include "graph/connectivity.h"
#include "graph/extra_builders.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "scenarios/registry.h"
#include "support/bitset.h"
#include "support/sha256.h"

namespace rumor {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.volume(), 0);
}

TEST(Graph, TriangleBasics) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.volume(), 6);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.min_degree(), 2);
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(Graph, EdgesAreNormalizedAndSorted) {
  Graph g(4, {{3, 1}, {2, 0}});
  const auto& edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].u, 0);
  EXPECT_EQ(edges[0].v, 2);
  EXPECT_EQ(edges[1].u, 1);
  EXPECT_EQ(edges[1].v, 3);
}

TEST(Graph, NeighborsSortedAscending) {
  Graph g(5, {{0, 4}, {0, 2}, {0, 1}, {2, 3}});
  const auto nb = g.neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb[0], 1);
  EXPECT_EQ(nb[2], 4);
}

TEST(Graph, RejectsSelfLoopsAndDuplicates) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 0}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{-1, 0}}), std::invalid_argument);
}

TEST(Graph, DegreeQueriesValidateRange) {
  Graph g(2, {{0, 1}});
  EXPECT_THROW(g.degree(2), std::invalid_argument);
  EXPECT_THROW(g.neighbors(-1), std::invalid_argument);
  EXPECT_THROW(g.has_edge(0, 5), std::invalid_argument);
}

TEST(Graph, IsolatedNodesHaveDegreeZero) {
  Graph g(4, {{0, 1}});
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_TRUE(g.neighbors(2).empty());
  EXPECT_EQ(g.min_degree(), 0);
}

TEST(Graph, VersionsAreUnique) {
  Graph a(2, {{0, 1}});
  Graph b(2, {{0, 1}});
  EXPECT_NE(a.version(), b.version());
}

TEST(Connectivity, PathIsConnected) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(component_count(g), 1);
}

TEST(Connectivity, TwoComponents) {
  Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(component_count(g), 2);
  const auto labels = component_labels(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(Connectivity, SingleNodeAndEmptyAreConnected) {
  EXPECT_TRUE(is_connected(Graph(1, {})));
  EXPECT_TRUE(is_connected(Graph(0, {})));
}

TEST(Connectivity, BfsDistancesOnPath) {
  Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto d = bfs_distances(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
}

TEST(Connectivity, BfsUnreachableIsMinusOne) {
  Graph g(3, {{0, 1}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], -1);
  EXPECT_THROW(bfs_distances(g, 5), std::invalid_argument);
}

// A Graph keeps only its CSR, so edges(), for_each_edge and write_edge_list
// all read the upper-triangular rows: u ascending, then each neighbour v > u
// ascending. For every static registry graph at small n that must be the
// naive row walk below, and the written edge list must keep the bytes it had
// when the sorted list was stored beside the CSR (sha256 pinned from that
// layout). static_expander pairs its stubs with std::shuffle, whose
// algorithm the standard leaves to the library, so only its row order is
// checked.
TEST(GraphEdgeOrder, StaticRegistryGraphsListTheirUpperRows) {
  struct Cell {
    std::string scenario;
    std::map<std::string, std::string> params;
    std::string edge_list_sha256;  // "" when the graph may depend on the stdlib
  };
  const std::vector<Cell> cells = {
      {"static_clique", {{"n", "12"}},
       "bf026ef64ed766d28d1e4c2ee621b53a6e5d0d52db34ec0a30d7dce69a79f6a3"},
      {"static_star", {{"n", "12"}},
       "fd9e1ac5eeb0f0ec2d82066c34f2d4c7341d2260544a14bfb6c886182b7857f8"},
      {"static_cycle", {{"n", "12"}},
       "4bc68d14537cec754efe09f1b23cfa8b523e8819da4d2d22d293c826beac9c55"},
      {"static_hypercube", {{"dims", "4"}},
       "ee1596a42a8d9a59af4d0e2d33ad1ead8fd621aa3584eb722aab76e2f93bf7d2"},
      {"static_torus", {{"rows", "3"}, {"cols", "5"}},
       "cafa26a723bcb4c62c325d77afe6188634fbc23f48e2a9231323ea1399a623be"},
      {"static_expander", {{"n", "16"}, {"d", "3"}}, ""},
      {"erdos_renyi", {{"n", "20"}, {"p", "0.3"}},
       "7cd98df89ebb2a9e13e87ffd0ffd9fd0974a39034a2c6dcf2241f8ba18611613"},
  };
  for (const ScenarioSpec& spec : scenario_registry()) {
    if (spec.name.rfind("static_", 0) != 0) continue;
    EXPECT_TRUE(std::any_of(cells.begin(), cells.end(),
                            [&](const Cell& c) { return c.scenario == spec.name; }))
        << spec.name << " has no edge-order cell";
  }

  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.scenario);
    const ScenarioSpec& spec = require_scenario(cell.scenario);
    const auto net = spec.make_factory(ScenarioParams::resolve(spec, cell.params))(7);
    const Bitset informed(static_cast<std::size_t>(net->node_count()));
    const std::int64_t informed_count = 0;
    const Graph& g = net->graph_at(0, InformedView(&informed, &informed_count));

    std::vector<Edge> rows;
    std::ostringstream expected_text;
    expected_text << "n " << g.node_count() << "\n";
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (const NodeId v : g.neighbors(u)) {
        if (v <= u) continue;
        rows.push_back({u, v});
        expected_text << u << " " << v << "\n";
      }
    }
    ASSERT_EQ(static_cast<std::int64_t>(rows.size()), g.edge_count());
    EXPECT_EQ(g.edges(), rows);
    std::vector<Edge> visited;
    g.for_each_edge([&](NodeId u, NodeId v) { visited.push_back({u, v}); });
    EXPECT_EQ(visited, rows);

    std::ostringstream written;
    write_edge_list(written, g);
    EXPECT_EQ(written.str(), expected_text.str());
    if (!cell.edge_list_sha256.empty()) {
      EXPECT_EQ(sha256_hex(written.str()), cell.edge_list_sha256);
    }
  }
}

// The power iteration accumulates y edge by edge in edges() order, 600
// passes deep, and the bounds grid's golden fingerprints record its output.
// λ₂'s bits on two fixed irregular graphs, recorded when the loop read the
// stored edge list, pin that summation order: both converge slowly enough
// that walking the same edges in reverse changes their last bits.
TEST(GraphEdgeOrder, SpectralLambda2BitsArePinned) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                spectral_conductance_bounds(make_hub_circulant(200, 16)).lambda2),
            0x3f592ffd596c5c00ULL);
  EXPECT_EQ(
      std::bit_cast<std::uint64_t>(spectral_conductance_bounds(make_lollipop(10, 30)).lambda2),
      0x3f607b52e0956e00ULL);
}

}  // namespace
}  // namespace rumor
