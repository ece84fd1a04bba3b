#include "graph/hk_graph.h"

#include <algorithm>

#include "graph/random_graphs.h"
#include "support/contracts.h"

namespace rumor {

std::vector<Edge> build_hk_edges(Rng& rng, const std::vector<NodeId>& a_side,
                                 const std::vector<NodeId>& b_side, int k, NodeId delta,
                                 HkLayout& layout) {
  DG_REQUIRE(delta >= 1, "cluster size must be positive");
  DG_REQUIRE(k >= 1, "need at least one B-side cluster");
  DG_REQUIRE(static_cast<NodeId>(a_side.size()) >= delta + 5,
             "A side too small: need |A| >= delta + 5");
  DG_REQUIRE(static_cast<NodeId>(b_side.size()) >= static_cast<NodeId>(k) * delta + 5,
             "B side too small: need |B| >= k*delta + 5");

  layout.clusters.assign(static_cast<std::size_t>(k) + 1, {});

  // Clusters: S_0 from A, S_1..S_k from B, taken in the order given.
  layout.clusters[0].assign(a_side.begin(), a_side.begin() + delta);
  for (int i = 1; i <= k; ++i) {
    const auto begin = b_side.begin() + static_cast<std::ptrdiff_t>(i - 1) * delta;
    layout.clusters[static_cast<std::size_t>(i)].assign(begin, begin + delta);
  }
  layout.expander_a.assign(a_side.begin() + delta, a_side.end());
  layout.expander_b.assign(b_side.begin() + static_cast<std::ptrdiff_t>(k) * delta,
                           b_side.end());

  std::vector<Edge> edges;

  // 1. String of complete bipartite graphs S_i -- S_{i+1}.
  for (int i = 0; i < k; ++i) {
    for (NodeId u : layout.clusters[static_cast<std::size_t>(i)])
      for (NodeId v : layout.clusters[static_cast<std::size_t>(i) + 1]) edges.push_back({u, v});
  }

  // 2. Expanders on the remainders: random 4-regular graphs (expanders whp).
  auto add_expander = [&](const std::vector<NodeId>& members) {
    const auto m = static_cast<NodeId>(members.size());
    for (const Edge& e : random_regular_edges(rng, m, 4))
      edges.push_back({members[static_cast<std::size_t>(e.u)],
                       members[static_cast<std::size_t>(e.v)]});
  };
  add_expander(layout.expander_a);
  add_expander(layout.expander_b);

  // 3. Attach S_0 into G_1 and S_k into G_2: each cluster node gets Δ distinct
  // expander neighbours via a cyclic cursor, so expander degrees grow by at
  // most ceil(Δ² / |expander|) + 1 — an additive constant in the paper's
  // regime Δ = O(sqrt n).
  auto attach = [&edges](const std::vector<NodeId>& cluster, const std::vector<NodeId>& target,
                         NodeId want) {
    DG_REQUIRE(static_cast<NodeId>(target.size()) >= want,
               "expander too small to give distinct neighbours");
    std::size_t cursor = 0;
    for (NodeId u : cluster) {
      for (NodeId j = 0; j < want; ++j) {
        edges.push_back({u, target[cursor]});
        cursor = (cursor + 1) % target.size();
      }
    }
  };
  attach(layout.clusters.front(), layout.expander_a, delta);
  attach(layout.clusters.back(), layout.expander_b, delta);

  return edges;
}

HkGraph build_hk_graph(Rng& rng, NodeId n_total, const std::vector<NodeId>& a_side,
                       const std::vector<NodeId>& b_side, int k, NodeId delta) {
  HkLayout layout;
  std::vector<Edge> edges = build_hk_edges(rng, a_side, b_side, k, delta, layout);

  HkGraph out;
  out.clusters = std::move(layout.clusters);
  out.expander_a = std::move(layout.expander_a);
  out.expander_b = std::move(layout.expander_b);
  out.graph = Graph(n_total, std::move(edges));

  // Every cluster node has degree 2Δ: Δ to the neighbouring cluster(s) or the
  // expander (S_0 and S_k), Δ to the other side.
  for (const auto& cluster : out.clusters)
    for (NodeId u : cluster)
      DG_ENSURE(out.graph.degree(u) == 2 * delta, "cluster node degree must be 2*delta");

  return out;
}

}  // namespace rumor
