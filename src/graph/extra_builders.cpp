#include "graph/extra_builders.h"

#include <algorithm>
#include <set>
#include <utility>

#include "graph/connectivity.h"
#include "support/contracts.h"

namespace rumor {

Graph make_hypercube(int dims) {
  DG_REQUIRE(dims >= 1 && dims <= 20, "dims must lie in [1, 20]");
  const NodeId n = static_cast<NodeId>(1) << dims;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(dims) / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (int b = 0; b < dims; ++b) {
      const NodeId v = u ^ (static_cast<NodeId>(1) << b);
      if (u < v) edges.push_back({u, v});
    }
  }
  return Graph(n, std::move(edges));
}

Graph make_torus_grid(NodeId rows, NodeId cols) {
  DG_REQUIRE(rows >= 3 && cols >= 3, "torus needs at least 3x3");
  const NodeId n = rows * cols;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * 2);
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      const NodeId right = id(r, static_cast<NodeId>((c + 1) % cols));
      const NodeId down = id(static_cast<NodeId>((r + 1) % rows), c);
      const NodeId here = id(r, c);
      edges.push_back({std::min(here, right), std::max(here, right)});
      edges.push_back({std::min(here, down), std::max(here, down)});
    }
  }
  // With rows, cols >= 3 every node's right, left, down and up neighbours are
  // four distinct nodes, so no edge repeats; the constructor's radix sort
  // puts the list in order.
  return Graph(n, std::move(edges));
}

Graph make_binary_tree(NodeId n) {
  DG_REQUIRE(n >= 1, "tree needs at least one node");
  std::vector<Edge> edges;
  for (NodeId u = 1; u < n; ++u) edges.push_back({static_cast<NodeId>((u - 1) / 2), u});
  return Graph(n, std::move(edges));
}

Graph make_barbell(NodeId k, NodeId path_len) {
  DG_REQUIRE(k >= 2, "cliques need at least two nodes");
  DG_REQUIRE(path_len >= 1, "the connecting path needs at least one edge");
  // Nodes: [0, k) left clique, [k, k + path_len - 1) path interior,
  // [k + path_len - 1, ...) right clique.
  const NodeId interior = path_len - 1;
  const NodeId n = 2 * k + interior;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < k; ++u)
    for (NodeId v = u + 1; v < k; ++v) edges.push_back({u, v});
  const NodeId right_start = k + interior;
  for (NodeId u = right_start; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  // Path from node k-1 (left clique) through the interior to right_start.
  NodeId prev = k - 1;
  for (NodeId i = 0; i < interior; ++i) {
    edges.push_back({prev, static_cast<NodeId>(k + i)});
    prev = static_cast<NodeId>(k + i);
  }
  edges.push_back({prev, right_start});
  return Graph(n, std::move(edges));
}

Graph make_lollipop(NodeId k, NodeId tail) {
  DG_REQUIRE(k >= 2, "clique needs at least two nodes");
  DG_REQUIRE(tail >= 1, "tail needs at least one node");
  const NodeId n = k + tail;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < k; ++u)
    for (NodeId v = u + 1; v < k; ++v) edges.push_back({u, v});
  NodeId prev = k - 1;
  for (NodeId i = 0; i < tail; ++i) {
    edges.push_back({prev, static_cast<NodeId>(k + i)});
    prev = static_cast<NodeId>(k + i);
  }
  return Graph(n, std::move(edges));
}

Graph watts_strogatz(Rng& rng, NodeId n, NodeId k, double beta) {
  DG_REQUIRE(n >= 5, "small world needs at least five nodes");
  DG_REQUIRE(k >= 2 && k % 2 == 0 && k < n - 1, "lattice degree must be even, in [2, n-2]");
  DG_REQUIRE(beta >= 0.0 && beta <= 1.0, "rewiring probability must lie in [0,1]");

  std::set<std::pair<NodeId, NodeId>> edge_set;
  auto key = [](NodeId a, NodeId b) { return a < b ? std::pair{a, b} : std::pair{b, a}; };
  for (NodeId u = 0; u < n; ++u)
    for (NodeId o = 1; o <= k / 2; ++o) edge_set.insert(key(u, static_cast<NodeId>((u + o) % n)));

  // Rewire each lattice edge's far endpoint with probability beta.
  std::vector<std::pair<NodeId, NodeId>> originals(edge_set.begin(), edge_set.end());
  for (const auto& e : originals) {
    if (!rng.flip(beta)) continue;
    edge_set.erase(e);
    for (int attempt = 0; attempt < 200; ++attempt) {
      const NodeId w = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      if (w == e.first || edge_set.count(key(e.first, w)) > 0) continue;
      edge_set.insert(key(e.first, w));
      break;
    }
    if (edge_set.count(e) == 0 && edge_set.size() < originals.size()) {
      edge_set.insert(e);  // all attempts collided: keep the original edge
    }
  }

  std::vector<Edge> edges;
  edges.reserve(edge_set.size());
  for (const auto& [a, b] : edge_set) edges.push_back({a, b});
  return Graph(n, std::move(edges));
}

Graph barabasi_albert(Rng& rng, NodeId n, NodeId m) {
  DG_REQUIRE(m >= 1, "attachment count must be positive");
  DG_REQUIRE(n > m, "need more nodes than attachment edges");

  // Repeated-endpoints trick: sampling a uniform position in the endpoint
  // list is sampling proportionally to degree.
  std::vector<NodeId> endpoints;
  std::vector<Edge> edges;
  // Seed: a small clique on m+1 nodes.
  for (NodeId u = 0; u <= m; ++u) {
    for (NodeId v = u + 1; v <= m; ++v) {
      edges.push_back({u, v});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<NodeId> targets;
  for (NodeId u = m + 1; u < n; ++u) {
    targets.clear();
    int guard = 0;
    while (static_cast<NodeId>(targets.size()) < m) {
      DG_ASSERT(++guard < 100000, "preferential attachment failed to find targets");
      const NodeId t = endpoints[rng.below(endpoints.size())];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) targets.push_back(t);
    }
    for (NodeId t : targets) {
      edges.push_back({t, u});
      endpoints.push_back(t);
      endpoints.push_back(u);
    }
  }
  Graph g(n, std::move(edges));
  DG_ENSURE(is_connected(g), "preferential-attachment graphs grow connected");
  return g;
}

}  // namespace rumor
