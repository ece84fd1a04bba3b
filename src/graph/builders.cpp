#include "graph/builders.h"

#include <algorithm>

#include "graph/connectivity.h"
#include "support/contracts.h"

namespace rumor {

Graph make_clique(NodeId n) {
  DG_REQUIRE(n >= 1, "clique needs at least one node");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  return Graph(n, std::move(edges));
}

Graph make_star(NodeId n, NodeId center) {
  DG_REQUIRE(n >= 2, "star needs at least two nodes");
  DG_REQUIRE(center >= 0 && center < n, "centre out of range");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId v = 0; v < n; ++v)
    if (v != center) edges.push_back({center, v});
  return Graph(n, std::move(edges));
}

Graph make_path(NodeId n) {
  DG_REQUIRE(n >= 1, "path needs at least one node");
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u) edges.push_back({u, static_cast<NodeId>(u + 1)});
  return Graph(n, std::move(edges));
}

Graph make_cycle(NodeId n) {
  DG_REQUIRE(n >= 3, "cycle needs at least three nodes");
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) edges.push_back({u, static_cast<NodeId>((u + 1) % n)});
  return Graph(n, std::move(edges));
}

Graph make_complete_bipartite(NodeId a, NodeId b) {
  DG_REQUIRE(a >= 1 && b >= 1, "both sides must be non-empty");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(a) * static_cast<std::size_t>(b));
  for (NodeId u = 0; u < a; ++u)
    for (NodeId v = a; v < a + b; ++v) edges.push_back({u, v});
  return Graph(a + b, std::move(edges));
}

namespace {

std::vector<Edge> circulant_edges(NodeId n, const std::vector<NodeId>& offsets) {
  DG_REQUIRE(n >= 3, "circulant needs at least three nodes");
  std::vector<NodeId> sorted = offsets;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    DG_REQUIRE(sorted[i] >= 1 && sorted[i] <= n / 2, "circulant offsets must lie in [1, n/2]");
    DG_REQUIRE(i == 0 || sorted[i] != sorted[i - 1], "circulant offsets must be distinct");
  }
  // No edge repeats: a pair's circular distance is its offset, so distinct
  // offsets give disjoint edge sets; within an offset o < n/2 the n pairs
  // {u, u+o} are distinct, and the antipodal branch emits each of its n/2
  // pairs once. Left unsorted for the Graph constructor's radix sort.
  std::vector<Edge> edges;
  for (NodeId o : sorted) {
    if (2 * o == n) {
      // Antipodal offset: each pair {i, i+n/2} appears once.
      for (NodeId u = 0; u < n / 2; ++u) edges.push_back({u, static_cast<NodeId>(u + n / 2)});
    } else {
      for (NodeId u = 0; u < n; ++u) {
        const NodeId v = static_cast<NodeId>((u + o) % n);
        edges.push_back({std::min(u, v), std::max(u, v)});
      }
    }
  }
  return edges;
}

}  // namespace

Graph make_circulant(NodeId n, const std::vector<NodeId>& offsets) {
  return Graph(n, circulant_edges(n, offsets));
}

std::vector<Edge> regular_circulant_edges(NodeId n, NodeId d) {
  DG_REQUIRE(n >= 3, "need at least three nodes");
  DG_REQUIRE(d >= 2 && d < n, "degree must lie in [2, n-1]");
  std::vector<NodeId> offsets;
  if (d % 2 == 0) {
    for (NodeId o = 1; o <= d / 2; ++o) offsets.push_back(o);
    DG_REQUIRE(d / 2 < (n + 1) / 2 || (d / 2 == n / 2 && n % 2 == 0),
               "degree too large for a circulant");
  } else {
    DG_REQUIRE(n % 2 == 0, "odd-regular graphs need an even node count");
    for (NodeId o = 1; o <= (d - 1) / 2; ++o) offsets.push_back(o);
    offsets.push_back(n / 2);
  }
  return circulant_edges(n, offsets);
}

Graph make_regular_circulant(NodeId n, NodeId d) {
  Graph g(n, regular_circulant_edges(n, d));
  DG_ENSURE(g.min_degree() == d && g.max_degree() == d, "circulant is not d-regular");
  return g;
}

std::vector<Edge> hub_circulant_edges(NodeId m, NodeId d_hub) {
  DG_REQUIRE(m >= 9, "hub circulant needs at least nine nodes");
  DG_REQUIRE(d_hub >= 4 && d_hub % 2 == 0, "hub degree must be even and >= 4");
  DG_REQUIRE(d_hub <= m - 5, "hub degree too large for the rewiring to stay simple");

  // Base: {1,2}-circulant, 4-regular and connected.
  std::vector<Edge> edges = circulant_edges(m, {1, 2});

  // Remove (d_hub - 4) / 2 disjoint edges {i, i+1} with i = 4, 6, 8, ... and
  // reconnect both endpoints to the hub (node 0). Endpoints keep their degree,
  // the hub gains two per operation. i+1 <= m-3 keeps the new edges distinct
  // from the hub's circulant neighbours {1, 2, m-2, m-1}.
  const NodeId ops = (d_hub - 4) / 2;
  DG_REQUIRE(4 + 2 * (ops - 1) + 1 <= m - 3 || ops == 0, "not enough room for hub rewiring");
  for (NodeId j = 0; j < ops; ++j) {
    const NodeId a = static_cast<NodeId>(4 + 2 * j);
    const NodeId b = static_cast<NodeId>(a + 1);
    const auto removed = std::erase(edges, Edge{a, b});
    DG_ASSERT(removed == 1, "edge scheduled for removal not present");
    edges.push_back({0, a});
    edges.push_back({0, b});
  }
  return edges;
}

Graph make_hub_circulant(NodeId m, NodeId d_hub) {
  Graph g(m, hub_circulant_edges(m, d_hub));
  DG_ENSURE(g.degree(0) == d_hub, "hub degree mismatch after rewiring");
  for (NodeId u = 1; u < m; ++u) DG_ENSURE(g.degree(u) == 4, "non-hub degree disturbed");
  DG_ENSURE(is_connected(g), "hub circulant must stay connected");
  return g;
}

Graph make_pendant_clique(NodeId n, NodeId attach) {
  DG_REQUIRE(n >= 2, "pendant clique needs at least two clique nodes");
  DG_REQUIRE(attach >= 0 && attach < n, "attachment node out of range");
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  edges.push_back({attach, n});
  return Graph(n + 1, std::move(edges));
}

Graph make_two_cliques_bridge(NodeId n_left, NodeId n_right, NodeId bridge_left,
                              NodeId bridge_right) {
  DG_REQUIRE(n_left >= 1 && n_right >= 1, "both cliques must be non-empty");
  DG_REQUIRE(bridge_left >= 0 && bridge_left < n_left, "left bridge endpoint out of range");
  DG_REQUIRE(bridge_right >= n_left && bridge_right < n_left + n_right,
             "right bridge endpoint out of range");
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n_left; ++u)
    for (NodeId v = u + 1; v < n_left; ++v) edges.push_back({u, v});
  for (NodeId u = n_left; u < n_left + n_right; ++u)
    for (NodeId v = u + 1; v < n_left + n_right; ++v) edges.push_back({u, v});
  edges.push_back({bridge_left, bridge_right});
  return Graph(n_left + n_right, std::move(edges));
}

Graph compose_edges(NodeId n, std::vector<std::vector<Edge>> edge_groups) {
  std::vector<Edge> all;
  std::size_t total = 0;
  for (const auto& g : edge_groups) total += g.size();
  all.reserve(total);
  for (auto& g : edge_groups)
    for (const auto& e : g) all.push_back(e);
  return Graph(n, std::move(all));
}

}  // namespace rumor
