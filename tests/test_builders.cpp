// Unit tests for the deterministic graph families, including the Section-5.1
// constructions G(A, Δ) (regular circulant) and G(A, 4, Δ) (hub circulant).
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "graph/builders.h"
#include "graph/connectivity.h"

namespace rumor {
namespace {

TEST(Clique, DegreesAndEdgeCount) {
  const Graph g = make_clique(6);
  EXPECT_EQ(g.edge_count(), 15);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(g.degree(u), 5);
  EXPECT_TRUE(is_connected(g));
}

TEST(Star, CenterAndLeaves) {
  const Graph g = make_star(8, 3);
  EXPECT_EQ(g.edge_count(), 7);
  EXPECT_EQ(g.degree(3), 7);
  for (NodeId u = 0; u < 8; ++u) {
    if (u != 3) {
      EXPECT_EQ(g.degree(u), 1);
    }
  }
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(make_star(8, 9), std::invalid_argument);
}

TEST(PathAndCycle, Shapes) {
  const Graph p = make_path(5);
  EXPECT_EQ(p.edge_count(), 4);
  EXPECT_EQ(p.degree(0), 1);
  EXPECT_EQ(p.degree(2), 2);

  const Graph c = make_cycle(5);
  EXPECT_EQ(c.edge_count(), 5);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(c.degree(u), 2);
  EXPECT_THROW(make_cycle(2), std::invalid_argument);
}

TEST(CompleteBipartite, DegreesMatchSides) {
  const Graph g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.node_count(), 7);
  EXPECT_EQ(g.edge_count(), 12);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 4);
  for (NodeId u = 3; u < 7; ++u) EXPECT_EQ(g.degree(u), 3);
}

TEST(Circulant, OffsetsProduceExpectedDegrees) {
  const Graph g = make_circulant(10, {1, 2});
  for (NodeId u = 0; u < 10; ++u) EXPECT_EQ(g.degree(u), 4);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 8));
  EXPECT_TRUE(g.has_edge(0, 9));
  EXPECT_FALSE(g.has_edge(0, 5));
}

TEST(Circulant, AntipodalOffsetGivesSingleEdge) {
  const Graph g = make_circulant(6, {3});
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(g.degree(u), 1);
  EXPECT_EQ(g.edge_count(), 3);
}

// make_circulant leaves ordering and the duplicate check to the Graph
// constructor; small circulants, the antipodal offset n/2 included, must
// still give exactly the edge set a std::set collects, in sorted order.
TEST(Circulant, SmallCirculantsMatchSetReference) {
  const std::vector<std::pair<NodeId, std::vector<NodeId>>> cases = {
      {3, {1}},    {4, {2}},       {4, {1, 2}},    {5, {1, 2}},    {6, {3}},
      {6, {1, 3}}, {7, {3, 1, 2}}, {8, {4, 1}},    {9, {2, 4}},    {10, {5, 2, 3}},
      {12, {6}},   {12, {1, 6, 4}}, {13, {6, 5}}};
  for (const auto& [n, offsets] : cases) {
    std::set<std::pair<NodeId, NodeId>> reference;
    for (const NodeId o : offsets) {
      for (NodeId u = 0; u < n; ++u) {
        const NodeId v = (u + o) % n;
        reference.insert({std::min(u, v), std::max(u, v)});
      }
    }
    std::vector<Edge> expected;
    for (const auto& [u, v] : reference) expected.push_back({u, v});
    EXPECT_EQ(make_circulant(n, offsets).edges(), expected) << "n=" << n;
  }
}

TEST(Circulant, RejectsBadOffsets) {
  EXPECT_THROW(make_circulant(10, {0}), std::invalid_argument);
  EXPECT_THROW(make_circulant(10, {6}), std::invalid_argument);
  EXPECT_THROW(make_circulant(10, {2, 2}), std::invalid_argument);
}

class RegularCirculant : public ::testing::TestWithParam<std::pair<NodeId, NodeId>> {};

TEST_P(RegularCirculant, IsConnectedAndRegular) {
  const auto [n, d] = GetParam();
  const Graph g = make_regular_circulant(n, d);
  EXPECT_EQ(g.min_degree(), d);
  EXPECT_EQ(g.max_degree(), d);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.edge_count(), static_cast<std::int64_t>(n) * d / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegularCirculant,
    ::testing::ValuesIn(std::vector<std::pair<NodeId, NodeId>>{{10, 2},
                                                               {10, 4},
                                                               {11, 4},
                                                               {12, 3},
                                                               {16, 6},
                                                               {30, 8},
                                                               {64, 5},
                                                               {100, 16},
                                                               {51, 10},
                                                               {128, 64}}));

TEST(RegularCirculant, OddRegularNeedsEvenNodes) {
  EXPECT_THROW(make_regular_circulant(11, 3), std::invalid_argument);
  EXPECT_NO_THROW(make_regular_circulant(12, 3));
}

class HubCirculant : public ::testing::TestWithParam<std::pair<NodeId, NodeId>> {};

TEST_P(HubCirculant, MatchesPaperShape) {
  const auto [m, d_hub] = GetParam();
  const Graph g = make_hub_circulant(m, d_hub);
  // G(A, 4, Δ): all nodes degree 4, hub (node 0) degree Δ, connected, simple.
  EXPECT_EQ(g.degree(0), d_hub);
  for (NodeId u = 1; u < m; ++u) EXPECT_EQ(g.degree(u), 4);
  EXPECT_TRUE(is_connected(g));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HubCirculant,
    ::testing::ValuesIn(std::vector<std::pair<NodeId, NodeId>>{
        {9, 4}, {20, 6}, {20, 14}, {33, 12}, {64, 32}, {101, 60}, {128, 122}, {200, 100}}));

TEST(HubCirculant, RejectsInfeasibleParameters) {
  EXPECT_THROW(make_hub_circulant(8, 4), std::invalid_argument);    // too small
  EXPECT_THROW(make_hub_circulant(20, 5), std::invalid_argument);   // odd hub degree
  EXPECT_THROW(make_hub_circulant(20, 2), std::invalid_argument);   // hub < 4
  EXPECT_THROW(make_hub_circulant(20, 18), std::invalid_argument);  // > m - 5
}

TEST(PendantClique, Shape) {
  const Graph g = make_pendant_clique(5, 2);
  EXPECT_EQ(g.node_count(), 6);
  EXPECT_EQ(g.edge_count(), 11);
  EXPECT_EQ(g.degree(5), 1);
  EXPECT_EQ(g.degree(2), 5);  // clique (4) + pendant
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_TRUE(g.has_edge(2, 5));
  EXPECT_TRUE(is_connected(g));
}

TEST(TwoCliquesBridge, Shape) {
  const Graph g = make_two_cliques_bridge(4, 5, 1, 6);
  EXPECT_EQ(g.node_count(), 9);
  EXPECT_EQ(g.edge_count(), 6 + 10 + 1);
  EXPECT_EQ(g.degree(1), 4);  // 3 clique + bridge
  EXPECT_EQ(g.degree(6), 5);  // 4 clique + bridge
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_TRUE(g.has_edge(1, 6));
  EXPECT_FALSE(g.has_edge(0, 8));
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(make_two_cliques_bridge(4, 5, 5, 6), std::invalid_argument);
  EXPECT_THROW(make_two_cliques_bridge(4, 5, 1, 2), std::invalid_argument);
}

TEST(ComposeEdges, MergesDisjointGroups) {
  const Graph g = compose_edges(4, {{{0, 1}}, {{2, 3}, {1, 2}}});
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_TRUE(is_connected(g));
  // Overlapping groups violate simplicity and must be rejected.
  EXPECT_THROW(compose_edges(3, {{{0, 1}}, {{1, 0}}}), std::invalid_argument);
}

}  // namespace
}  // namespace rumor
