// TopologyBuilder and CSR-snapshot integrity tests.
//
// The heart of this suite is the cross-family property test the engine
// overhaul leans on: for every dynamic family, across 100 change-points, the
// CSR snapshot handed out by graph_at must equal a naive adjacency rebuild
// from the edge list — same degrees, same sorted neighbour lists, same raw
// CSR view. This pins the TopologyBuilder fast paths (radix rebuilds, delta
// merges, presorted installs) to the semantics of the original
// comparison-sorted construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dynamic/absolute_adversary.h"
#include "dynamic/clique_bridge.h"
#include "dynamic/diligent_adversary.h"
#include "dynamic/dynamic_star.h"
#include "dynamic/edge_markovian.h"
#include "dynamic/edge_sampling.h"
#include "dynamic/intermittent.h"
#include "dynamic/mobile_geometric.h"
#include "dynamic/simple_networks.h"
#include "graph/builders.h"
#include "graph/random_graphs.h"
#include "graph/topology.h"
#include "support/bitset.h"

namespace rumor {
namespace {

bool edge_less(const Edge& a, const Edge& b) { return a.u < b.u || (a.u == b.u && a.v < b.v); }

// Naive reference: adjacency lists rebuilt from the edge list with plain
// comparison sorts, the way Graph did it before the radix/CSR overhaul.
std::vector<std::vector<NodeId>> naive_adjacency(const Graph& g) {
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(g.node_count()));
  for (const Edge& e : g.edges()) {
    adj[static_cast<std::size_t>(e.u)].push_back(e.v);
    adj[static_cast<std::size_t>(e.v)].push_back(e.u);
  }
  for (auto& list : adj) std::sort(list.begin(), list.end());
  return adj;
}

void expect_csr_matches_naive(const Graph& g) {
  const auto naive = naive_adjacency(g);
  const CsrView csr = g.csr();
  ASSERT_EQ(csr.n, g.node_count());
  std::int64_t degree_sum = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto& expected = naive[static_cast<std::size_t>(u)];
    // Duplicate edges would show up as repeated entries here.
    ASSERT_TRUE(std::adjacent_find(expected.begin(), expected.end()) == expected.end())
        << "duplicate edge at node " << u;
    const auto got = g.neighbors(u);
    ASSERT_EQ(got.size(), expected.size()) << "degree mismatch at node " << u;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()))
        << "neighbour list mismatch at node " << u;
    EXPECT_EQ(g.degree(u), static_cast<NodeId>(expected.size()));
    EXPECT_EQ(csr.degree(u), g.degree(u));
    const auto raw = csr.neighbors(u);
    EXPECT_TRUE(std::equal(raw.begin(), raw.end(), got.begin()));
    degree_sum += static_cast<std::int64_t>(expected.size());
  }
  EXPECT_EQ(degree_sum, g.volume());
  if (g.node_count() > 0) {
    const auto by_size = [](const auto& a, const auto& b) { return a.size() < b.size(); };
    EXPECT_EQ(g.min_degree(),
              static_cast<NodeId>(std::min_element(naive.begin(), naive.end(), by_size)->size()));
    EXPECT_EQ(g.max_degree(),
              static_cast<NodeId>(std::max_element(naive.begin(), naive.end(), by_size)->size()));
  }
  // Normalized edges must be strictly increasing lexicographically.
  const auto& edges = g.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_LT(edges[i].u, edges[i].v);
    if (i > 0) {
      EXPECT_TRUE(edges[i - 1].u < edges[i].u ||
                  (edges[i - 1].u == edges[i].u && edges[i - 1].v < edges[i].v));
    }
  }
}

// Drives a family through `steps` change-points with a growing informed set
// (so the adaptive adversaries actually rebuild) and checks every snapshot.
void check_family(DynamicNetwork& net, int steps = 100) {
  const NodeId n = net.node_count();
  Bitset informed(static_cast<std::size_t>(n));
  std::int64_t count = 1;
  informed.set(static_cast<std::size_t>(net.suggested_source()));
  const InformedView view(&informed, &count);

  std::uint64_t version = 0;
  int changes = 0;
  for (int t = 0; t < steps; ++t) {
    const Graph& g = net.graph_at(t, view);
    if (g.version() != version) {
      version = g.version();
      ++changes;
      expect_csr_matches_naive(g);
    }
    ASSERT_EQ(g.node_count(), n);
    // Inform a couple more nodes per step, lowest ids first, mimicking the
    // monotone informed-set growth of a real run.
    for (NodeId u = 0; u < n && count < n; ++u) {
      if (!informed.test(static_cast<std::size_t>(u))) {
        informed.set(static_cast<std::size_t>(u));
        ++count;
        break;
      }
    }
  }
  EXPECT_GE(changes, 1) << net.name() << " never exposed a snapshot";
}

TEST(TopologySnapshots, StaticNetworkMatchesNaive) {
  StaticNetwork net(make_clique(64));
  check_family(net);
}

TEST(TopologySnapshots, DynamicStarMatchesNaive) {
  DynamicStarNetwork net(96, 5);
  check_family(net);
}

TEST(TopologySnapshots, CliqueBridgeMatchesNaive) {
  CliqueBridgeNetwork net(64);
  check_family(net);
}

TEST(TopologySnapshots, EdgeMarkovianMatchesNaive) {
  EdgeMarkovianNetwork net(80, 0.05, 0.3, 11);
  check_family(net);
}

TEST(TopologySnapshots, EdgeMarkovianFullBirthMatchesNaive) {
  // p = 1 exercises the "every pair becomes an edge" delta special case.
  EdgeMarkovianNetwork net(24, 1.0, 0.5, 11);
  check_family(net, 10);
}

TEST(TopologySnapshots, MobileGeometricMatchesNaive) {
  MobileGeometricNetwork net(80, 0.2, 0.05, 3);
  check_family(net);
}

TEST(TopologySnapshots, MobileGeometricWideRadiusMatchesNaive) {
  // radius > 1/3 forces overlapping cell windows: the duplicate-emitting path.
  MobileGeometricNetwork net(40, 0.45, 0.1, 3);
  check_family(net, 25);
}

TEST(TopologySnapshots, EdgeSamplingMatchesNaive) {
  Rng rng(9);
  EdgeSamplingNetwork net(random_connected_regular(rng, 64, 4), 0.4, 21);
  check_family(net);
}

TEST(TopologySnapshots, IntermittentMatchesNaive) {
  Rng rng(9);
  auto base = std::make_unique<EdgeMarkovianNetwork>(48, 0.05, 0.3, 13);
  IntermittentNetwork net(std::move(base), 4, 2);
  check_family(net);
}

TEST(TopologySnapshots, DiligentAdversaryMatchesNaive) {
  DiligentAdversaryNetwork net(128, 0.25, 0, 17);
  check_family(net);
}

TEST(TopologySnapshots, AbsoluteAdversaryMatchesNaive) {
  AbsoluteAdversaryNetwork net(128, 0.1, 19);
  check_family(net);
}

TEST(TopologySnapshots, PeriodicNetworkMatchesNaive) {
  PeriodicNetwork net({make_cycle(32), make_clique(32), make_star(32)});
  check_family(net);
}

TEST(TopologyBuilder_, RebuildMatchesGraphConstructor) {
  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    const Graph reference = erdos_renyi(rng, 40, 0.15);
    TopologyBuilder topo(40);
    const Graph& built = topo.rebuild(reference.edges());
    ASSERT_EQ(built.edge_count(), reference.edge_count());
    EXPECT_EQ(built.edges(), reference.edges());
    expect_csr_matches_naive(built);
  }
}

TEST(TopologyBuilder_, ApplyDeltaMatchesFullRebuild) {
  Rng rng(6);
  TopologyBuilder topo(30);
  topo.rebuild(erdos_renyi(rng, 30, 0.3).edges());
  for (int round = 0; round < 100; ++round) {
    // Random delta: remove a few existing edges, add a few absent ones.
    const Graph& cur = topo.current();
    std::vector<Edge> removed, added;
    for (const Edge& e : cur.edges())
      if (rng.flip(0.2)) removed.push_back(e);
    for (NodeId u = 0; u < 30; ++u)
      for (NodeId v = u + 1; v < 30; ++v)
        if (!cur.has_edge(u, v) && rng.flip(0.02)) added.push_back({u, v});

    // Reference edge set after the delta.
    std::vector<Edge> expected;
    for (const Edge& e : cur.edges())
      if (std::find(removed.begin(), removed.end(), e) == removed.end())
        expected.push_back(e);
    expected.insert(expected.end(), added.begin(), added.end());
    const Graph reference(30, expected);

    // Both deltas were collected in edge order, so they are already sorted.
    const Graph& next = topo.apply_delta_sorted(removed, added);
    EXPECT_EQ(next.edges(), reference.edges());
    expect_csr_matches_naive(next);
  }
}

TEST(TopologyBuilder_, ApplyDeltaValidatesMembership) {
  TopologyBuilder topo(8);
  topo.rebuild({{0, 1}, {2, 3}});
  const std::vector<Edge> none;
  const std::vector<Edge> absent = {{4, 5}};
  const std::vector<Edge> present = {{0, 1}};
  const std::vector<Edge> fresh = {{0, 2}};
  EXPECT_THROW(topo.apply_delta_sorted(absent, none), std::invalid_argument);
  EXPECT_THROW(topo.apply_delta_sorted(none, present), std::invalid_argument);
  EXPECT_NO_THROW(topo.apply_delta_sorted(present, fresh));
  EXPECT_TRUE(topo.current().has_edge(0, 2));
  EXPECT_FALSE(topo.current().has_edge(0, 1));
}

TEST(TopologyBuilder_, RebuildDedupeCollapsesDuplicates) {
  TopologyBuilder topo(5);
  const Graph& g = topo.rebuild({{1, 0}, {0, 1}, {2, 4}, {4, 2}, {2, 4}}, /*dedupe=*/true);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 4));
  // Without dedupe the same input is a contract violation.
  TopologyBuilder strict(5);
  EXPECT_THROW(strict.rebuild({{1, 0}, {0, 1}}), std::invalid_argument);
}

TEST(TopologyBuilder_, SnapshotsGetFreshVersionsAndPreviousStaysValid) {
  TopologyBuilder topo(6);
  const Graph& first = topo.rebuild({{0, 1}});
  const std::uint64_t v1 = first.version();
  const std::int64_t m1 = first.edge_count();
  const Graph& second = topo.rebuild({{0, 1}, {1, 2}});
  EXPECT_NE(second.version(), v1);
  // Double buffering: the first snapshot must survive one more rebuild (the
  // graph_at contract: references stay valid until the *next* call).
  EXPECT_EQ(first.edge_count(), m1);
  EXPECT_EQ(topo.current().version(), second.version());
}

// Edges on n = 3·4096 + 17 nodes, past the 4096-node blocks an earlier CSR
// fill partitioned by: rows that straddle each block edge b (nodes b-1 and b,
// neighbours on both sides of b), a tail block of 17 nodes, random edges,
// and `isolated` nodes of degree 0. Unsorted, with u > v for some edges.
constexpr NodeId kBlockedN = 3 * 4096 + 17;
const std::vector<NodeId> kIsolated = {0, 4102, 8199, kBlockedN - 2};

bool is_isolated(NodeId u) {
  return std::find(kIsolated.begin(), kIsolated.end(), u) != kIsolated.end();
}

std::vector<Edge> straddling_edges(Rng& rng) {
  std::vector<Edge> edges;
  for (const NodeId b : {4096, 8192, 12288}) {
    for (NodeId d = 1; d <= 6; ++d) {
      edges.push_back({b - 1, b - 1 + d});  // above b-1, across the edge
      edges.push_back({b, b - d - 1});      // below b, across the edge
      edges.push_back({b - d, b + d + 7});
    }
    edges.push_back({kBlockedN - 1, b});
  }
  while (edges.size() < 20000) {
    const auto u = static_cast<NodeId>(rng.below(kBlockedN));
    const auto v = static_cast<NodeId>(rng.below(kBlockedN));
    if (u != v && !is_isolated(u) && !is_isolated(v)) edges.push_back({u, v});
  }
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), edge_less);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::shuffle(edges.begin(), edges.end(), rng);
  for (std::size_t i = 0; i < edges.size(); i += 3) std::swap(edges[i].u, edges[i].v);
  return edges;
}

TEST(TopologyBuilder_, FillMatchesNaiveAcrossBlockEdges) {
  Rng rng(41);
  const std::vector<Edge> edges = straddling_edges(rng);
  const Graph reference(kBlockedN, edges);
  expect_csr_matches_naive(reference);
  for (const NodeId u : kIsolated) EXPECT_EQ(reference.degree(u), 0);
  EXPECT_EQ(reference.min_degree(), 0);

  TopologyBuilder topo(kBlockedN);
  const Graph& built = topo.rebuild(edges);
  EXPECT_EQ(built.edges(), reference.edges());
  expect_csr_matches_naive(built);

  for (int round = 0; round < 6; ++round) {
    const Graph& cur = topo.current();
    std::vector<Edge> removed;
    std::vector<Edge> added;
    // Round 3 connects one isolated node, by an edge no later round removes;
    // the rest stay isolated.
    for (const Edge& e : cur.edges()) {
      if (rng.flip(0.1) && e.u != kIsolated[1] && e.v != kIsolated[1]) removed.push_back(e);
    }
    if (round == 3) added.push_back({4095, kIsolated[1]});
    while (added.size() < 1500) {
      const auto u = static_cast<NodeId>(rng.below(kBlockedN));
      const auto v = static_cast<NodeId>(rng.below(kBlockedN));
      const Edge e{std::min(u, v), std::max(u, v)};
      if (u != v && !is_isolated(u) && !is_isolated(v) && !cur.has_edge(u, v) &&
          std::find(added.begin(), added.end(), e) == added.end()) {
        added.push_back(e);
      }
    }
    std::vector<Edge> expected;
    for (const Edge& e : cur.edges()) {
      if (std::find(removed.begin(), removed.end(), e) == removed.end()) expected.push_back(e);
    }
    expected.insert(expected.end(), added.begin(), added.end());
    const Graph next_reference(kBlockedN, expected);

    std::sort(added.begin(), added.end(), edge_less);
    const Graph& next = topo.apply_delta_sorted(removed, added);
    EXPECT_EQ(next.edges(), next_reference.edges());
    expect_csr_matches_naive(next);
    EXPECT_EQ(next.degree(kIsolated[0]), 0);
    EXPECT_EQ(next.degree(kIsolated[1]), round >= 3 ? 1 : 0);
  }
}

// A delta merge writes into the evicted slot's edge list, which the builder
// owns (a Graph keeps only its CSR), so after warm-up the builder's current
// list alternates between exactly two buffers: no third buffer, and no
// reallocation while the edge count holds. Checked on the serial weave and on
// the tiled weave a lent pool drives.
TEST(TopologyBuilder_, ApplyDeltaReusesTwoEdgeBuffers) {
  // A circulant with 12 chords per node: past kParallelMergeMinEdges, and
  // several merge tiles.
  const NodeId n = kBlockedN;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId k = 1; k <= 12; ++k) edges.push_back({u, (u + k) % n});
  }
  ASSERT_GE(static_cast<std::int64_t>(edges.size()), TopologyBuilder::kParallelMergeMinEdges);
  // Two equal-size deltas that undo each other, so the edge count holds.
  std::vector<Edge> chords;
  std::vector<Edge> extra;
  for (NodeId u = 0; u < n; u += 97) {
    chords.push_back({u, u + 1});
    extra.push_back({u, u + 20});
  }

  // Counts the tiled merges and runs each one's tiles last first.
  class ReverseCounter final : public ParallelEvolution {
   public:
    int runs = 0;
    void run(std::int64_t tasks, const std::function<void(std::int64_t)>& fn) override {
      ++runs;
      for (std::int64_t t = tasks - 1; t >= 0; --t) fn(t);
    }
  };

  for (const bool lend : {false, true}) {
    TopologyBuilder topo(n);
    ReverseCounter pool;
    if (lend) topo.set_parallel_evolution(&pool);
    topo.rebuild(edges);
    const std::vector<Edge> base = topo.current().edges();
    std::vector<const Edge*> buffers;
    for (int step = 0; step < 10; ++step) {
      const bool forward = step % 2 == 0;
      const Graph& g =
          topo.apply_delta_sorted(forward ? chords : extra, forward ? extra : chords);
      ASSERT_EQ(g.edge_count(), static_cast<std::int64_t>(base.size()));
      EXPECT_EQ(topo.current_edges(), g.edges());
      if (!forward) {
        EXPECT_EQ(g.edges(), base);
      }
      if (step >= 2) buffers.push_back(topo.current_edges().data());  // after warm-up
    }
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      EXPECT_NE(buffers[i], buffers[i ^ 1]) << (lend ? "tiled" : "serial") << " step " << i;
      if (i >= 2) {
        EXPECT_EQ(buffers[i], buffers[i - 2]) << (lend ? "tiled" : "serial") << " step " << i;
      }
    }
    expect_csr_matches_naive(topo.current());
    EXPECT_EQ(pool.runs, lend ? 10 : 0);
  }
}

// The delta contract is O(|delta|) and checked in every build type, before
// the merge writes the spare slot: an unnormalized, out-of-range, repeated or
// out-of-order delta edge raises std::invalid_argument and leaves current()
// exactly as it was.
TEST(TopologyBuilder_, ApplyDeltaRejectsUnsortedDeltaInRelease) {
  Rng rng(43);
  TopologyBuilder topo(kBlockedN);
  topo.rebuild(straddling_edges(rng));
  const Graph& live = topo.current();
  const std::uint64_t version = live.version();
  const std::vector<Edge> edges = live.edges();
  ASSERT_FALSE(live.has_edge(4095, kIsolated[1]));
  ASSERT_GE(edges.size(), 11U);

  const std::vector<Edge> none;
  const std::vector<Edge> unnormalized = {{kIsolated[1], 4095}};
  const std::vector<Edge> out_of_range = {{5, kBlockedN}};
  const std::vector<Edge> repeated = {{0, 5}, {0, 5}};
  const std::vector<Edge> out_of_order_added = {{0, 5}, {0, 3}};
  const std::vector<Edge> out_of_order_removed = {edges[10], edges[3]};
  const std::pair<const std::vector<Edge>*, const std::vector<Edge>*> rejected[] = {
      {&none, &unnormalized},       {&none, &out_of_range}, {&none, &repeated},
      {&none, &out_of_order_added}, {&unnormalized, &none}, {&out_of_order_removed, &none},
  };
  for (const auto& [removed, added] : rejected) {
    EXPECT_THROW(topo.apply_delta_sorted(*removed, *added), std::invalid_argument);
    ASSERT_EQ(&topo.current(), &live);
    EXPECT_EQ(topo.current().version(), version);
    EXPECT_EQ(topo.current().edges(), edges);
    expect_csr_matches_naive(topo.current());
  }

  // The same edges in order are accepted.
  const std::vector<Edge> normalized = {{4095, kIsolated[1]}};
  const Graph& next = topo.apply_delta_sorted(none, normalized);
  EXPECT_NE(next.version(), version);
  EXPECT_TRUE(next.has_edge(4095, kIsolated[1]));
  expect_csr_matches_naive(next);
}

// Edge counts and shapes around the CSR fill's prefetch window (D =
// kFillPrefetchDistance = 32 in graph.cpp): every m in [0, 80] covers 0, 1,
// D/2 and D-1..D+1, and would for any D up to 79. The two stars stress the
// cursor prefetch: with the hub at n-1 every below-entry lands in one row,
// so each prefetched cursor is stale by the time its edge is written; with
// the hub at 0 every below-entry lands in a different row and every
// above-entry in row 0. Each edge set goes through
// Graph(n, edges), rebuild_presorted and apply_delta_sorted.
TEST(TopologyBuilder_, FillMatchesNaiveAroundPrefetchDistance) {
  const auto check = [](NodeId n, const std::vector<Edge>& sorted) {
    SCOPED_TRACE(::testing::Message() << "n=" << n << " m=" << sorted.size());
    const Graph reference(n, sorted);
    EXPECT_EQ(reference.edges(), sorted);
    expect_csr_matches_naive(reference);

    TopologyBuilder topo(n);
    const Graph& presorted = topo.rebuild_presorted(sorted);
    EXPECT_EQ(presorted.edges(), sorted);
    expect_csr_matches_naive(presorted);

    // From a path on the same nodes, which shares some edges with each set:
    // the builder's diff of set -> path, inverted, is the delta path -> set.
    std::vector<Edge> path;
    for (NodeId u = 0; u + 1 < n; ++u) path.push_back({u, u + 1});
    topo.rebuild_presorted(path);
    const std::optional<TopologyDelta> back = topo.last_delta();
    ASSERT_TRUE(back.has_value());
    const std::vector<Edge> removed(back->added.begin(), back->added.end());
    const std::vector<Edge> added(back->removed.begin(), back->removed.end());
    const Graph& merged = topo.apply_delta_sorted(removed, added);
    EXPECT_EQ(merged.edges(), sorted);
    expect_csr_matches_naive(merged);
  };

  Rng rng(47);
  constexpr NodeId kN = 40;
  std::vector<Edge> pool;
  while (pool.size() < 80) {
    const auto u = static_cast<NodeId>(rng.below(kN));
    const auto v = static_cast<NodeId>(rng.below(kN));
    const Edge e{std::min(u, v), std::max(u, v)};
    if (u != v && std::find(pool.begin(), pool.end(), e) == pool.end()) pool.push_back(e);
  }
  for (std::size_t m = 0; m <= pool.size(); ++m) {
    std::vector<Edge> sorted(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(m));
    std::sort(sorted.begin(), sorted.end(), edge_less);
    check(kN, sorted);
  }

  for (const NodeId n : {2, 32, 33, 34, 100, 1000}) {
    std::vector<Edge> hub_last;
    std::vector<Edge> hub_first;
    for (NodeId u = 0; u + 1 < n; ++u) hub_last.push_back({u, n - 1});
    for (NodeId v = 1; v < n; ++v) hub_first.push_back({0, v});
    check(n, hub_last);
    check(n, hub_first);
  }
}

// Reference diff of two sorted edge lists, by the standard algorithms.
std::pair<std::vector<Edge>, std::vector<Edge>> naive_diff(const std::vector<Edge>& before,
                                                           const std::vector<Edge>& after) {
  std::vector<Edge> removed;
  std::vector<Edge> added;
  std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                      std::back_inserter(removed), edge_less);
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(added), edge_less);
  return {removed, added};
}

// last_delta() reports the latest publish: nothing for the first snapshot,
// the caller's own spans after a merge, the diff of the two live snapshots
// after a rebuild (asked twice, answered from one diff), and nothing once a
// merge that failed membership has overwritten the previous snapshot.
TEST(TopologyBuilder_, LastDeltaReportsLatestPublish) {
  Rng rng(53);
  TopologyBuilder topo(60);
  topo.rebuild(erdos_renyi(rng, 60, 0.1).edges());
  EXPECT_FALSE(topo.last_delta().has_value());

  for (int round = 0; round < 20; ++round) {
    const std::vector<Edge> before = topo.current().edges();
    const Graph& next = topo.rebuild(erdos_renyi(rng, 60, 0.1).edges());
    const auto [removed, added] = naive_diff(before, next.edges());
    const std::optional<TopologyDelta> delta = topo.last_delta();
    ASSERT_TRUE(delta.has_value());
    EXPECT_EQ(std::vector<Edge>(delta->removed.begin(), delta->removed.end()), removed);
    EXPECT_EQ(std::vector<Edge>(delta->added.begin(), delta->added.end()), added);
    const std::optional<TopologyDelta> again = topo.last_delta();
    EXPECT_EQ(again->removed.data(), delta->removed.data());
    EXPECT_EQ(again->added.data(), delta->added.data());

    // Merge the same delta back: the report is the caller's buffers.
    const std::vector<Edge> undo_removed = added;
    const std::vector<Edge> undo_added = removed;
    EXPECT_EQ(topo.apply_delta_sorted(undo_removed, undo_added).edges(), before);
    const std::optional<TopologyDelta> merged = topo.last_delta();
    ASSERT_TRUE(merged.has_value());
    EXPECT_EQ(merged->removed.data(), undo_removed.data());
    EXPECT_EQ(merged->added.data(), undo_added.data());
    EXPECT_EQ(merged->removed.size(), undo_removed.size());
    EXPECT_EQ(merged->added.size(), undo_added.size());
  }

  // Removing an absent edge fails membership inside the merge.
  Edge absent{0, 1};
  while (topo.current().has_edge(absent.u, absent.v)) ++absent.v;
  const std::vector<Edge> none;
  EXPECT_THROW(topo.apply_delta_sorted(std::vector<Edge>{absent}, none), std::invalid_argument);
  EXPECT_FALSE(topo.last_delta().has_value());
}

TEST(TopologyBuilder_, CurrentBeforeRebuildThrows) {
  TopologyBuilder topo(4);
  EXPECT_FALSE(topo.has_snapshot());
  EXPECT_THROW(topo.current(), std::invalid_argument);
}

}  // namespace
}  // namespace rumor
