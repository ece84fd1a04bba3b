// Unit tests for the additional graph families (hypercube, torus, trees,
// barbells, small worlds, preferential attachment).
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "graph/connectivity.h"
#include "graph/extra_builders.h"

namespace rumor {
namespace {

TEST(Hypercube, DimsAndDegrees) {
  for (int d : {1, 3, 6}) {
    const Graph g = make_hypercube(d);
    EXPECT_EQ(g.node_count(), 1 << d);
    EXPECT_EQ(g.min_degree(), d);
    EXPECT_EQ(g.max_degree(), d);
    EXPECT_EQ(g.edge_count(), static_cast<std::int64_t>(d) * (1 << d) / 2);
    EXPECT_TRUE(is_connected(g));
  }
  EXPECT_THROW(make_hypercube(0), std::invalid_argument);
  EXPECT_THROW(make_hypercube(21), std::invalid_argument);
}

TEST(Hypercube, NeighborsDifferByOneBit) {
  const Graph g = make_hypercube(4);
  for (const Edge& e : g.edges()) {
    const auto x = static_cast<unsigned>(e.u ^ e.v);
    EXPECT_EQ(x & (x - 1), 0u);  // power of two
    EXPECT_NE(x, 0u);
  }
}

TEST(TorusGrid, FourRegularConnected) {
  const Graph g = make_torus_grid(4, 5);
  EXPECT_EQ(g.node_count(), 20);
  EXPECT_EQ(g.min_degree(), 4);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(make_torus_grid(2, 5), std::invalid_argument);
}

// The builder emits the torus unsorted and leaves ordering and the duplicate
// check to the Graph constructor; the smallest grids, where the wrap-around
// neighbours come closest to coinciding, must still give exactly the edge
// set a std::set collects, in sorted order.
TEST(TorusGrid, SmallGridsMatchSetReference) {
  for (const auto& [rows, cols] : std::vector<std::pair<NodeId, NodeId>>{
           {3, 3}, {3, 4}, {3, 5}, {3, 7}, {4, 3}, {7, 3}, {5, 6}}) {
    std::set<std::pair<NodeId, NodeId>> reference;
    for (NodeId r = 0; r < rows; ++r) {
      for (NodeId c = 0; c < cols; ++c) {
        const NodeId here = r * cols + c;
        for (const NodeId there : {r * cols + (c + 1) % cols, ((r + 1) % rows) * cols + c}) {
          reference.insert({std::min(here, there), std::max(here, there)});
        }
      }
    }
    std::vector<Edge> expected;
    for (const auto& [u, v] : reference) expected.push_back({u, v});
    const Graph g = make_torus_grid(rows, cols);
    EXPECT_EQ(g.edges(), expected) << rows << "x" << cols;
    EXPECT_EQ(g.edge_count(), 2 * static_cast<std::int64_t>(rows) * cols) << rows << "x" << cols;
    EXPECT_EQ(g.min_degree(), 4);
    EXPECT_EQ(g.max_degree(), 4);
  }
}

TEST(TorusGrid, WrapAroundEdgesPresent) {
  const Graph g = make_torus_grid(3, 4);
  EXPECT_TRUE(g.has_edge(0, 3));      // row wrap: (0,0)-(0,3)
  EXPECT_TRUE(g.has_edge(0, 8));      // column wrap: (0,0)-(2,0)
}

TEST(BinaryTree, HeapStructure) {
  const Graph g = make_binary_tree(7);
  EXPECT_EQ(g.edge_count(), 6);
  EXPECT_EQ(g.degree(0), 2);  // root
  EXPECT_EQ(g.degree(1), 3);  // internal
  EXPECT_EQ(g.degree(6), 1);  // leaf
  EXPECT_TRUE(is_connected(g));
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[6], 2);
}

TEST(Barbell, CliquesAndPath) {
  const Graph g = make_barbell(5, 3);
  EXPECT_EQ(g.node_count(), 12);  // 5 + 2 interior + 5
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_EQ(g.degree(4), 5);  // clique + path
  EXPECT_EQ(g.degree(5), 2);  // path interior
  // Path length 3: distance between the clique attachment points.
  const auto dist = bfs_distances(g, 4);
  EXPECT_EQ(dist[7], 3);
}

TEST(Barbell, PathLengthOneIsDirectBridge) {
  const Graph g = make_barbell(4, 1);
  EXPECT_EQ(g.node_count(), 8);
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_TRUE(is_connected(g));
}

TEST(Lollipop, Shape) {
  const Graph g = make_lollipop(6, 4);
  EXPECT_EQ(g.node_count(), 10);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(9), 1);  // tail end
  EXPECT_EQ(g.degree(5), 6);  // clique node holding the tail
}

class SmallWorld : public ::testing::TestWithParam<double> {};

TEST_P(SmallWorld, PreservesEdgeBudgetAndSimplicity) {
  const double beta = GetParam();
  Rng rng(42);
  const Graph g = watts_strogatz(rng, 100, 6, beta);
  EXPECT_EQ(g.node_count(), 100);
  // Rewiring keeps the edge count (up to rare collision fallbacks).
  EXPECT_GE(g.edge_count(), 295);
  EXPECT_LE(g.edge_count(), 300);
}

INSTANTIATE_TEST_SUITE_P(Betas, SmallWorld, ::testing::Values(0.0, 0.1, 0.5, 1.0));

TEST(SmallWorld, ZeroBetaIsLattice) {
  Rng rng(1);
  const Graph g = watts_strogatz(rng, 30, 4, 0.0);
  EXPECT_EQ(g.min_degree(), 4);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(SmallWorld, RewiringShrinksDiameter) {
  Rng rng(3);
  const Graph lattice = watts_strogatz(rng, 200, 4, 0.0);
  const Graph rewired = watts_strogatz(rng, 200, 4, 0.3);
  auto ecc = [](const Graph& g) {
    int worst = 0;
    const auto d = bfs_distances(g, 0);
    for (int x : d) worst = std::max(worst, x);
    return worst;
  };
  if (is_connected(rewired)) {
    EXPECT_LT(ecc(rewired), ecc(lattice));
  }
}

TEST(SmallWorld, ParameterValidation) {
  Rng rng(1);
  EXPECT_THROW(watts_strogatz(rng, 10, 3, 0.1), std::invalid_argument);   // odd k
  EXPECT_THROW(watts_strogatz(rng, 10, 10, 0.1), std::invalid_argument);  // k too big
  EXPECT_THROW(watts_strogatz(rng, 10, 4, 1.5), std::invalid_argument);
}

TEST(BarabasiAlbert, DegreeSumAndConnectivity) {
  Rng rng(7);
  const NodeId n = 300, m = 3;
  const Graph g = barabasi_albert(rng, n, m);
  EXPECT_EQ(g.node_count(), n);
  // Seed clique C(m+1, 2) plus m edges per later node.
  EXPECT_EQ(g.edge_count(), (m + 1) * m / 2 + static_cast<std::int64_t>(n - m - 1) * m);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(g.min_degree(), m);
}

TEST(BarabasiAlbert, HubsEmerge) {
  Rng rng(11);
  const Graph g = barabasi_albert(rng, 400, 2);
  // Preferential attachment produces degrees far above the mean.
  EXPECT_GE(g.max_degree(), 20);
}

TEST(BarabasiAlbert, ParameterValidation) {
  Rng rng(1);
  EXPECT_THROW(barabasi_albert(rng, 5, 0), std::invalid_argument);
  EXPECT_THROW(barabasi_albert(rng, 3, 3), std::invalid_argument);
}

}  // namespace
}  // namespace rumor
