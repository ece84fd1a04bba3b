// Unit tests for every dynamic-network family: exposure schedules, adaptive
// evolution rules, and the analytic profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "dynamic/absolute_adversary.h"
#include "dynamic/clique_bridge.h"
#include "dynamic/diligent_adversary.h"
#include "dynamic/dynamic_star.h"
#include "dynamic/edge_markovian.h"
#include "dynamic/edge_sampling.h"
#include "dynamic/mobile_geometric.h"
#include "dynamic/simple_networks.h"
#include "graph/builders.h"
#include "graph/conductance.h"
#include "graph/connectivity.h"
#include "graph/diligence.h"

namespace rumor {
namespace {

// Helper: an informed view over an explicit bitset.
struct Informed {
  Bitset flags;
  std::int64_t count = 0;

  explicit Informed(NodeId n) : flags(static_cast<std::size_t>(n)) {}
  void mark(NodeId u) {
    if (!flags.test(static_cast<std::size_t>(u))) {
      flags.set(static_cast<std::size_t>(u));
      ++count;
    }
  }
  InformedView view() const { return InformedView(&flags, &count); }
};

TEST(StaticNetwork, AlwaysSameGraph) {
  StaticNetwork net(make_clique(5));
  Informed inf(5);
  const Graph& g0 = net.graph_at(0, inf.view());
  const Graph& g5 = net.graph_at(5, inf.view());
  EXPECT_EQ(g0.version(), g5.version());
  EXPECT_EQ(net.node_count(), 5);
  EXPECT_THROW(net.graph_at(-1, inf.view()), std::invalid_argument);
}

TEST(StaticNetwork, ProfileOverrideAndCaching) {
  StaticNetwork net(make_star(6));
  const auto generic = net.current_profile();
  EXPECT_NEAR(generic.conductance, 1.0, 1e-9);
  GraphProfile p;
  p.conductance = 0.123;
  p.connected = true;
  net.set_profile(p);
  EXPECT_DOUBLE_EQ(net.current_profile().conductance, 0.123);
}

TEST(PeriodicNetwork, CyclesThroughPhases) {
  std::vector<Graph> phases;
  phases.push_back(make_clique(4));
  phases.push_back(make_cycle(4));
  PeriodicNetwork net(std::move(phases));
  Informed inf(4);
  const auto v0 = net.graph_at(0, inf.view()).version();
  const auto v1 = net.graph_at(1, inf.view()).version();
  const auto v2 = net.graph_at(2, inf.view()).version();
  EXPECT_NE(v0, v1);
  EXPECT_EQ(v0, v2);
}

TEST(PeriodicNetwork, PerPhaseProfiles) {
  std::vector<Graph> phases;
  phases.push_back(make_clique(4));
  phases.push_back(make_cycle(4));
  PeriodicNetwork net(std::move(phases));
  GraphProfile a, b;
  a.conductance = 0.7;
  b.conductance = 0.2;
  net.set_profiles({a, b});
  Informed inf(4);
  net.graph_at(0, inf.view());
  EXPECT_DOUBLE_EQ(net.current_profile().conductance, 0.7);
  net.graph_at(1, inf.view());
  EXPECT_DOUBLE_EQ(net.current_profile().conductance, 0.2);
}

TEST(PeriodicNetwork, RejectsMismatchedVertexSets) {
  std::vector<Graph> phases;
  phases.push_back(make_clique(4));
  phases.push_back(make_clique(5));
  EXPECT_THROW(PeriodicNetwork net(std::move(phases)), std::invalid_argument);
}

TEST(TraceNetwork, HoldsLastGraph) {
  std::vector<Graph> seq;
  seq.push_back(make_path(4));
  seq.push_back(make_cycle(4));
  TraceNetwork net(std::move(seq));
  Informed inf(4);
  const auto v1 = net.graph_at(1, inf.view()).version();
  const auto v9 = net.graph_at(9, inf.view()).version();
  EXPECT_EQ(v1, v9);
}

TEST(CliqueBridge, InitialGraphIsPendantClique) {
  CliqueBridgeNetwork net(8);  // 9 nodes total
  Informed inf(9);
  const Graph& g0 = net.graph_at(0, inf.view());
  EXPECT_EQ(g0.degree(8), 1);            // pendant (paper's node n+1)
  EXPECT_EQ(g0.degree(0), 8);            // attach node (paper's node 1)
  EXPECT_TRUE(g0.has_edge(0, 8));
  EXPECT_EQ(net.suggested_source(), 8);  // rumor starts at the pendant
}

TEST(CliqueBridge, SwitchesToTwoCliquesForever) {
  CliqueBridgeNetwork net(8);
  Informed inf(9);
  const Graph& g1 = net.graph_at(1, inf.view());
  // Two cliques of sizes 4 and 5 plus the bridge {0, 8}.
  EXPECT_TRUE(g1.has_edge(0, 8));
  EXPECT_EQ(g1.edge_count(), 4 * 3 / 2 + 5 * 4 / 2 + 1);
  EXPECT_TRUE(is_connected(g1));
  const auto v1 = g1.version();
  EXPECT_EQ(net.graph_at(7, inf.view()).version(), v1);
}

TEST(CliqueBridge, AnalyticProfileIsConservative) {
  // Compare against exact values at a small size (n = 8 -> 9 nodes <= 24).
  CliqueBridgeNetwork net(8);
  Informed inf(9);
  net.graph_at(0, inf.view());
  {
    const auto p = net.current_profile();
    const Graph g = make_pendant_clique(8, 0);
    EXPECT_LE(p.conductance, exact_conductance(g) + 1e-9);
    EXPECT_LE(p.diligence, exact_diligence(g) + 1e-9);
    EXPECT_LE(p.abs_diligence, absolute_diligence(g) + 1e-9);
  }
  net.graph_at(1, inf.view());
  {
    const auto p = net.current_profile();
    const Graph g = make_two_cliques_bridge(4, 5, 0, 4);
    EXPECT_LE(p.conductance, exact_conductance(g) + 1e-9);
    EXPECT_LE(p.diligence, exact_diligence(g) + 1e-9);
  }
}

TEST(DynamicStar, CenterMovesToUninformedNode) {
  DynamicStarNetwork net(6);  // 7 nodes
  Informed inf(7);
  inf.mark(1);  // the source leaf
  const Graph& g0 = net.graph_at(0, inf.view());
  EXPECT_EQ(net.current_center(), 0);
  EXPECT_EQ(g0.degree(0), 6);

  inf.mark(0);  // centre informed during [0,1)
  net.graph_at(1, inf.view());
  // New centre must be uninformed: the smallest uninformed id is 2.
  EXPECT_EQ(net.current_center(), 2);
  EXPECT_EQ(net.current_graph().degree(2), 6);
  EXPECT_EQ(net.current_graph().degree(0), 1);
}

TEST(DynamicStar, AllInformedPicksArbitraryCenter) {
  DynamicStarNetwork net(4);
  Informed inf(5);
  for (NodeId u = 0; u < 5; ++u) inf.mark(u);
  net.graph_at(0, inf.view());
  const NodeId before = net.current_center();
  net.graph_at(1, inf.view());
  const NodeId after = net.current_center();
  EXPECT_NE(before, after);  // re-seated somewhere else
  EXPECT_TRUE(is_connected(net.current_graph()));
}

TEST(DynamicStar, ProfileIsOneOneOne) {
  DynamicStarNetwork net(5);
  const auto p = net.current_profile();
  EXPECT_DOUBLE_EQ(p.conductance, 1.0);
  EXPECT_DOUBLE_EQ(p.diligence, 1.0);
  EXPECT_DOUBLE_EQ(p.abs_diligence, 1.0);
}

TEST(DynamicStar, RejectsTimeGoingBackwards) {
  DynamicStarNetwork net(4);
  Informed inf(5);
  net.graph_at(3, inf.view());
  EXPECT_THROW(net.graph_at(2, inf.view()), std::invalid_argument);
}

TEST(DiligentAdversary, InitialSplitAndSource) {
  DiligentAdversaryNetwork net(256, 0.25);
  EXPECT_EQ(net.node_count(), 256);
  EXPECT_EQ(net.delta(), 4);
  EXPECT_LT(net.suggested_source(), 64);  // a node of A_0 (|A_0| = n/4)
  Informed inf(256);
  inf.mark(net.suggested_source());
  EXPECT_TRUE(is_connected(net.graph_at(0, inf.view())));
}

TEST(DiligentAdversary, RebuildsOnlyWhenBShrinks) {
  DiligentAdversaryNetwork net(256, 0.25);
  Informed inf(256);
  inf.mark(net.suggested_source());
  const auto v0 = net.graph_at(0, inf.view()).version();
  // Nothing new informed in B: the graph must stay identical.
  const auto v1 = net.graph_at(1, inf.view()).version();
  EXPECT_EQ(v0, v1);
  // Inform a B-side node (ids >= n/4): the adversary must re-expose.
  inf.mark(100);
  const auto v2 = net.graph_at(2, inf.view()).version();
  EXPECT_NE(v1, v2);
  // The newly informed node moved to the A side: it may no longer be one of
  // the B-side cluster nodes, all of which are uninformed.
}

TEST(DiligentAdversary, FreezesWhenBTooSmall) {
  const NodeId n = 256;
  DiligentAdversaryNetwork net(n, 0.25);
  Informed inf(n);
  inf.mark(net.suggested_source());
  net.graph_at(0, inf.view());
  // Inform everything except n/8 nodes: |B| < n/4 forces a freeze.
  for (NodeId u = 0; u < n - n / 8; ++u) inf.mark(u);
  const auto v = net.graph_at(1, inf.view()).version();
  for (NodeId u = n - n / 8; u < n; ++u) inf.mark(u);
  EXPECT_EQ(net.graph_at(2, inf.view()).version(), v);
  EXPECT_EQ(net.graph_at(3, inf.view()).version(), v);
}

TEST(DiligentAdversary, LowerBoundFormula) {
  DiligentAdversaryNetwork net(1024, 0.125, 3);
  // n / (4 k Δ) = 1024 / (4 * 3 * 8).
  EXPECT_NEAR(net.spread_time_lower_bound(), 1024.0 / 96.0, 1e-9);
}

TEST(DiligentAdversary, RejectsInfeasibleRho) {
  EXPECT_THROW(DiligentAdversaryNetwork(256, 0.001), std::invalid_argument);
  EXPECT_THROW(DiligentAdversaryNetwork(256, 1.5), std::invalid_argument);
  EXPECT_THROW(DiligentAdversaryNetwork(16, 0.5), std::invalid_argument);
}

TEST(DefaultLayerCount, GrowsSlowly) {
  EXPECT_GE(default_layer_count(256), 2);
  EXPECT_LE(default_layer_count(256), 5);
  EXPECT_LE(default_layer_count(1 << 20), 10);
  EXPECT_GE(default_layer_count(1 << 20), default_layer_count(256));
}

TEST(AbsoluteAdversary, StructureMatchesPaper) {
  AbsoluteAdversaryNetwork net(240, 0.1);
  EXPECT_EQ(net.delta(), 10);
  Informed inf(240);
  inf.mark(net.suggested_source());
  const Graph& g = net.graph_at(0, inf.view());
  EXPECT_TRUE(is_connected(g));
  // Hub and boundary both have degree Δ+1; everyone else 4 (A side) or Δ.
  EXPECT_EQ(g.degree(net.current_hub()), net.delta() + 1);
  EXPECT_EQ(g.degree(net.current_boundary()), net.delta() + 1);
  EXPECT_TRUE(g.has_edge(net.current_hub(), net.current_boundary()));
  // ρ̄ = 1/(Δ+1) exactly.
  EXPECT_NEAR(absolute_diligence(g), 1.0 / (net.delta() + 1.0), 1e-12);
  EXPECT_NEAR(net.current_profile().abs_diligence, 1.0 / (net.delta() + 1.0), 1e-12);
}

TEST(AbsoluteAdversary, SourceIsHub) {
  AbsoluteAdversaryNetwork net(240, 0.1);
  EXPECT_EQ(net.suggested_source(), net.current_hub());
}

TEST(AbsoluteAdversary, RebuildMovesInformedOutOfB) {
  const NodeId n = 240;
  AbsoluteAdversaryNetwork net(n, 0.1);
  Informed inf(n);
  inf.mark(net.suggested_source());
  net.graph_at(0, inf.view());
  const NodeId b_node = net.current_boundary();
  inf.mark(b_node);  // the boundary node crossed
  const Graph& g1 = net.graph_at(1, inf.view());
  EXPECT_TRUE(is_connected(g1));
  // A fresh boundary is exposed and it is uninformed.
  EXPECT_FALSE(inf.flags.test(static_cast<std::size_t>(net.current_boundary())));
  // The previously informed node now sits on the A side: its degree is one of
  // the A-side degrees (4, or Δ/Δ+1 for the hub), not the B-side Δ... the
  // hub is chosen among informed nodes, so b_node may be the new hub.
  EXPECT_TRUE(g1.degree(b_node) == 4 || g1.degree(b_node) == net.delta() + 1);
}

TEST(AbsoluteAdversary, FreezesWhenBBelowSixth) {
  const NodeId n = 240;
  AbsoluteAdversaryNetwork net(n, 0.1);
  Informed inf(n);
  for (NodeId u = 0; u < n - n / 8; ++u) inf.mark(u);  // |B| candidates < n/6
  const auto v1 = net.graph_at(1, inf.view()).version();
  for (NodeId u = 0; u < n; ++u) inf.mark(u);
  EXPECT_EQ(net.graph_at(2, inf.view()).version(), v1);
}

TEST(AbsoluteAdversary, Theorem13BoundFormula) {
  AbsoluteAdversaryNetwork net(240, 0.1);
  EXPECT_NEAR(net.theorem13_bound(), 2.0 * 240.0 * 11.0, 1e-9);
}

TEST(AbsoluteAdversary, RejectsTooSmallRho) {
  EXPECT_THROW(AbsoluteAdversaryNetwork(240, 10.0 / 1e6), std::invalid_argument);
}

TEST(EdgeMarkovian, StationaryDensityApproximatelyHeld) {
  const NodeId n = 64;
  const double p = 0.02, q = 0.3;
  EdgeMarkovianNetwork net(n, p, q, 99);
  Informed inf(n);
  double avg_edges = 0.0;
  const int steps = 60;
  for (int t = 0; t < steps; ++t)
    avg_edges += static_cast<double>(net.graph_at(t, inf.view()).edge_count());
  avg_edges /= steps;
  const double expected = p / (p + q) * n * (n - 1) / 2.0;
  EXPECT_NEAR(avg_edges, expected, expected * 0.35);
}

TEST(EdgeMarkovian, StartEmptyFillsTowardStationary) {
  EdgeMarkovianNetwork net(50, 0.05, 0.2, 7, /*start_empty=*/true);
  Informed inf(50);
  EXPECT_EQ(net.graph_at(0, inf.view()).edge_count(), 0);
  const auto e20 = net.graph_at(20, inf.view()).edge_count();
  EXPECT_GT(e20, 0);
}

// FNV-1a over the (u, v) pairs of one snapshot, the fingerprint the portable
// golden-sequence contract is pinned with.
std::uint64_t edge_fingerprint(const Graph& g) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const Edge& e : g.edges()) {
    mix(static_cast<std::uint64_t>(e.u));
    mix(static_cast<std::uint64_t>(e.v));
  }
  return h;
}

// The portable sequence contract (docs/ARCHITECTURE.md): the per-seed graph
// sequence is a pure function of (n, p, q, seed, start_empty) — tiled
// counter-based streams, deaths in ascending pair-index order, births by
// geometric skip — with no standard-library container order anywhere. These
// fingerprints were recorded once from this implementation; any stdlib
// (libstdc++, libc++ — CI runs both) and any ParallelEvolution worker count
// must reproduce them exactly.
TEST(EdgeMarkovian, GoldenSequencePortable) {
  EdgeMarkovianNetwork net(48, 0.08, 0.4, 12345);
  Informed inf(48);
  std::vector<std::uint64_t> fingerprints;
  for (int t = 0; t < 12; ++t) {
    fingerprints.push_back(edge_fingerprint(net.graph_at(t, inf.view())));
  }
  const std::vector<std::uint64_t> golden = {
      12827032974755364028ULL, 7531786126276243871ULL, 18045827551323146857ULL,
      8203525454545527174ULL,  14472175472519541854ULL, 3138241831539968326ULL,
      9479990335927541284ULL,  669813948473497232ULL,   5165439307631310094ULL,
      860681724321629282ULL,   4229135810361917922ULL,  5816499462605676662ULL,
  };
  EXPECT_EQ(fingerprints, golden);
}

// Runs every task on the calling thread, last tile first: a schedule no pool
// produces, so a tile that read another tile's state would show here.
class ReverseEvolution final : public ParallelEvolution {
 public:
  void run(std::int64_t tasks, const std::function<void(std::int64_t)>& fn) override {
    for (std::int64_t task = tasks - 1; task >= 0; --task) fn(task);
  }
};

// GoldenSequencePortable's n = 48 fits one evolution tile. Here n = 8200 has
// n(n-1)/2 = 33,615,900 pairs: two full tiles of 2^24 pairs and a third of
// 61,468, so every step cuts the edge list at two tile boundaries. The
// fingerprints were recorded before the tile ranges were found by search
// instead of by a counting sweep, and must hold with and without a lent pool.
TEST(EdgeMarkovian, GoldenSequenceAcrossTiles) {
  const NodeId n = 8200;
  ASSERT_GT(std::int64_t{n} * (n - 1) / 2, 2 * EdgeMarkovianNetwork::kPairsPerTile);
  const std::vector<std::uint64_t> golden = {
      16192726911935439958ULL, 14919807302369937927ULL, 5341584214467652144ULL,
      476176803630634113ULL,   15324090973252535474ULL, 7551523024042158078ULL,
      10502036518305316178ULL, 8535053235526875126ULL,  14908497977796081773ULL,
      13467087747538724682ULL,
  };
  for (const bool pooled : {false, true}) {
    EdgeMarkovianNetwork net(n, 1e-5, 0.25, 2718);
    ReverseEvolution reverse;
    if (pooled) net.set_parallel_evolution(&reverse);
    Informed inf(n);
    std::vector<std::uint64_t> fingerprints;
    for (int t = 0; t < 10; ++t) {
      fingerprints.push_back(edge_fingerprint(net.graph_at(t, inf.view())));
    }
    EXPECT_EQ(fingerprints, golden) << (pooled ? "with" : "without") << " a lent pool";
  }
}

TEST(EdgeMarkovian, FrozenEdgesNeverDie) {
  // q = 0: the frozen-edges boundary. Edges accumulate and never disappear.
  EdgeMarkovianNetwork net(60, 0.01, 0.0, 5, /*start_empty=*/true);
  Informed inf(60);
  std::int64_t prev = net.graph_at(0, inf.view()).edge_count();
  EXPECT_EQ(prev, 0);
  for (int t = 1; t <= 30; ++t) {
    const Graph& g = net.graph_at(t, inf.view());
    EXPECT_GE(g.edge_count(), prev);
    const auto delta = net.last_delta();
    ASSERT_TRUE(delta.has_value());
    EXPECT_TRUE(delta->removed.empty());
    prev = g.edge_count();
  }
  EXPECT_GT(prev, 0);
}

TEST(EdgeMarkovian, FrozenStationaryStartIsComplete) {
  // q = 0 makes the stationary density p/(p+q) = 1: the complete graph.
  EdgeMarkovianNetwork net(16, 0.3, 0.0, 5);
  Informed inf(16);
  EXPECT_EQ(net.graph_at(0, inf.view()).edge_count(), 16 * 15 / 2);
}

TEST(EdgeMarkovian, TinyBirthProbabilitySurvivesSkipUnderflow) {
  // p this small drives log1p(-p) toward -0 and the geometric skip toward
  // +inf; the guarded skip must terminate without overflow instead of
  // invoking UB on the double-to-integer cast.
  EdgeMarkovianNetwork net(50, 1e-300, 0.5, 9, /*start_empty=*/true);
  Informed inf(50);
  for (int t = 0; t <= 5; ++t) {
    EXPECT_EQ(net.graph_at(t, inf.view()).edge_count(), 0);
  }
}

TEST(EdgeMarkovian, RejectsOutOfRangeProbabilities) {
  EXPECT_THROW(EdgeMarkovianNetwork(10, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(EdgeMarkovianNetwork(10, 0.5, -0.1), std::invalid_argument);
  EXPECT_THROW(EdgeMarkovianNetwork(10, 1.5, 0.5), std::invalid_argument);
  EXPECT_THROW(EdgeMarkovianNetwork(10, 0.5, 1.5), std::invalid_argument);
}

// The n = 10^5 golden cell (scripts/check_fingerprints.sh: p = 1.6e-5,
// q = 0.2, m ~ 400k) is the one whose records pin TopologyBuilder's tiled
// merge weave. This proves the family forwards a lent pool to that weave:
// one step runs evolve's ~299 pair tiles and then ceil(m / kMergeTileEdges)
// merge tiles on the pool, and nothing else.
TEST(EdgeMarkovian, LentPoolRunsTiledMergeAtGoldenScale) {
  class CountingEvolution final : public ParallelEvolution {
   public:
    std::vector<std::int64_t> runs;
    void run(std::int64_t tasks, const std::function<void(std::int64_t)>& fn) override {
      runs.push_back(tasks);
      for (std::int64_t task = 0; task < tasks; ++task) fn(task);
    }
  };
  const NodeId n = 100000;
  EdgeMarkovianNetwork net(n, 1.6e-5, 0.2, 7);
  CountingEvolution pool;
  net.set_parallel_evolution(&pool);
  Informed inf(n);
  const std::int64_t m = net.graph_at(0, inf.view()).edge_count();
  ASSERT_GE(m, TopologyBuilder::kParallelMergeMinEdges);
  net.graph_at(1, inf.view());
  const std::int64_t pairs = std::int64_t{n} * (n - 1) / 2;
  const std::int64_t pair_tiles =
      (pairs + EdgeMarkovianNetwork::kPairsPerTile - 1) / EdgeMarkovianNetwork::kPairsPerTile;
  const std::int64_t merge_tiles =
      (m + TopologyBuilder::kMergeTileEdges - 1) / TopologyBuilder::kMergeTileEdges;
  ASSERT_NE(pair_tiles, merge_tiles);
  EXPECT_EQ(pool.runs, (std::vector<std::int64_t>{pair_tiles, merge_tiles}));
}

TEST(EdgeMarkovian, GraphsStaySimple) {
  EdgeMarkovianNetwork net(40, 0.1, 0.5, 3);
  Informed inf(40);
  for (int t = 0; t < 20; ++t) {
    const Graph& g = net.graph_at(t, inf.view());
    for (const Edge& e : g.edges()) {
      EXPECT_LT(e.u, e.v);
      EXPECT_LT(e.v, 40);
    }
  }
}

TEST(MobileGeometric, EdgesRespectRadius) {
  MobileGeometricNetwork net(80, 0.2, 0.05, 4);
  Informed inf(80);
  for (int t = 0; t < 5; ++t) {
    const Graph& g = net.graph_at(t, inf.view());
    const auto& xs = net.xs();
    const auto& ys = net.ys();
    for (const Edge& e : g.edges()) {
      const auto ue = static_cast<std::size_t>(e.u);
      const auto ve = static_cast<std::size_t>(e.v);
      double dx = std::abs(xs[ue] - xs[ve]);
      dx = std::min(dx, 1.0 - dx);
      double dy = std::abs(ys[ue] - ys[ve]);
      dy = std::min(dy, 1.0 - dy);
      EXPECT_LE(dx * dx + dy * dy, 0.2 * 0.2 + 1e-12);
    }
  }
}

TEST(MobileGeometric, DenseRadiusConnectsEverything) {
  MobileGeometricNetwork net(30, 0.45, 0.01, 5);
  Informed inf(30);
  const Graph& g = net.graph_at(0, inf.view());
  // radius 0.45 on the unit torus covers most pairs: graph is dense.
  EXPECT_GT(g.edge_count(), 30 * 29 / 4);
}

TEST(MobileGeometric, PositionsStayOnTorus) {
  MobileGeometricNetwork net(20, 0.1, 0.3, 6);
  Informed inf(20);
  for (int t = 0; t < 10; ++t) {
    net.graph_at(t, inf.view());
    for (double x : net.xs()) {
      EXPECT_GE(x, 0.0);
      EXPECT_LT(x, 1.0);
    }
    for (double y : net.ys()) {
      EXPECT_GE(y, 0.0);
      EXPECT_LT(y, 1.0);
    }
  }
}

// The delta contract EvolvingNetwork keeps for every family it carries: a
// call that advances one step reports exactly the diff of the consecutive
// snapshots, a repeat call at the same t keeps that report, and a call that
// crosses several steps withdraws it until the next single step. A delta
// silently withdrawn would leave every record unchanged (the engine falls
// back to a rebuild), so only a test like this one sees it.
struct EvolvingFamily {
  const char* name;
  std::function<std::unique_ptr<DynamicNetwork>()> make;
};

void PrintTo(const EvolvingFamily& family, std::ostream* os) { *os << family.name; }

class EvolvingDeltaContract : public ::testing::TestWithParam<EvolvingFamily> {};

std::vector<Edge> as_vector(std::span<const Edge> edges) { return {edges.begin(), edges.end()}; }

TEST_P(EvolvingDeltaContract, OneStepReportsTheSnapshotDiff) {
  const auto edge_less = [](const Edge& a, const Edge& b) {
    return a.u < b.u || (a.u == b.u && a.v < b.v);
  };
  const std::unique_ptr<DynamicNetwork> net = GetParam().make();
  Informed inf(net->node_count());
  std::vector<Edge> prev = net->graph_at(0, inf.view()).edges();
  EXPECT_FALSE(net->last_delta().has_value());
  std::size_t changed = 0;
  for (int t = 1; t <= 25; ++t) {
    const Graph& g = net->graph_at(t, inf.view());
    const std::vector<Edge> now = g.edges();  // one copy: edges() returns by value
    std::vector<Edge> removed;
    std::vector<Edge> added;
    std::set_difference(prev.begin(), prev.end(), now.begin(), now.end(),
                        std::back_inserter(removed), edge_less);
    std::set_difference(now.begin(), now.end(), prev.begin(), prev.end(),
                        std::back_inserter(added), edge_less);
    for (int call = 0; call < 2; ++call) {  // the step, then a repeat at t
      if (call == 1) {
        ASSERT_EQ(&net->graph_at(t, inf.view()), &g);
      }
      const auto delta = net->last_delta();
      ASSERT_TRUE(delta.has_value()) << "t=" << t << " call " << call;
      EXPECT_EQ(as_vector(delta->removed), removed) << "t=" << t << " call " << call;
      EXPECT_EQ(as_vector(delta->added), added) << "t=" << t << " call " << call;
    }
    changed += removed.size() + added.size();
    prev = now;
  }
  EXPECT_GT(changed, 0U);

  net->graph_at(27, inf.view());  // two composed steps: no single delta
  EXPECT_FALSE(net->last_delta().has_value());
  net->graph_at(27, inf.view());
  EXPECT_FALSE(net->last_delta().has_value());
  net->graph_at(28, inf.view());
  EXPECT_TRUE(net->last_delta().has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Families, EvolvingDeltaContract,
    ::testing::Values(
        EvolvingFamily{"EdgeMarkovian",
                       [] { return std::make_unique<EdgeMarkovianNetwork>(70, 0.05, 0.4, 21); }},
        EvolvingFamily{"EdgeSampling",
                       [] { return std::make_unique<EdgeSamplingNetwork>(make_clique(24), 0.5, 21); }},
        EvolvingFamily{"MobileGeometric",
                       [] { return std::make_unique<MobileGeometricNetwork>(60, 0.2, 0.05, 21); }}),
    [](const ::testing::TestParamInfo<EvolvingFamily>& family) { return std::string(family.param.name); });

}  // namespace
}  // namespace rumor
