#include "graph/random_graphs.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/connectivity.h"
#include "support/contracts.h"

namespace rumor {

namespace {

using Pair = std::pair<NodeId, NodeId>;

Pair normalize(NodeId a, NodeId b) { return a < b ? Pair{a, b} : Pair{b, a}; }

}  // namespace

std::vector<Edge> random_regular_edges(Rng& rng, NodeId n, NodeId d) {
  DG_REQUIRE(n >= 1, "need at least one node");
  DG_REQUIRE(d >= 0 && d < n, "degree must lie in [0, n-1]");
  DG_REQUIRE((static_cast<std::int64_t>(n) * d) % 2 == 0, "n*d must be even");
  if (d == 0) return {};

  // Configuration model: d stubs per node, paired by a random shuffle.
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (NodeId u = 0; u < n; ++u)
    for (NodeId j = 0; j < d; ++j) stubs.push_back(u);
  std::shuffle(stubs.begin(), stubs.end(), rng);

  std::vector<Pair> pairs;
  pairs.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    pairs.push_back(normalize(stubs[i], stubs[i + 1]));
  }

  // Repair pass: while some pair is a self-loop or a duplicate, swap it with a
  // uniformly random other pair (double edge swap). This keeps every node's
  // degree at exactly d and terminates quickly for d = O(1) or d = O(sqrt n).
  std::multiset<Pair> occupied(pairs.begin(), pairs.end());
  auto is_bad = [&occupied](const Pair& p) {
    return p.first == p.second || occupied.count(p) > 1;
  };

  std::size_t guard = 0;
  const std::size_t guard_limit = 1000 * pairs.size() + 100000;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    while (is_bad(pairs[i])) {
      DG_ASSERT(++guard < guard_limit, "edge-swap repair failed to converge");
      const std::size_t j = static_cast<std::size_t>(rng.below(pairs.size()));
      if (j == i) continue;
      // Swap one endpoint between pairs i and j.
      Pair a = pairs[i], b = pairs[j];
      occupied.erase(occupied.find(a));
      occupied.erase(occupied.find(b));
      Pair na = normalize(a.first, b.second);
      Pair nb = normalize(b.first, a.second);
      // Only commit swaps that do not create new violations at j.
      const bool na_ok = na.first != na.second && occupied.count(na) == 0;
      const bool nb_ok = nb.first != nb.second && occupied.count(nb) == 0 && !(nb == na);
      if (na_ok && nb_ok) {
        pairs[i] = na;
        pairs[j] = nb;
      }
      occupied.insert(pairs[i]);
      occupied.insert(pairs[j]);
    }
  }

  std::vector<Edge> edges;
  edges.reserve(pairs.size());
  for (const auto& p : pairs) edges.push_back({p.first, p.second});
  return edges;
}

Graph random_regular(Rng& rng, NodeId n, NodeId d) {
  Graph g(n, random_regular_edges(rng, n, d));
  DG_ENSURE(g.min_degree() == d && g.max_degree() == d, "configuration model not d-regular");
  return g;
}

Graph erdos_renyi(Rng& rng, NodeId n, double p) {
  DG_REQUIRE(n >= 0, "node count must be non-negative");
  DG_REQUIRE(p >= 0.0 && p <= 1.0, "p must lie in [0,1]");
  std::vector<Edge> edges;
  if (p >= 1.0) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
    return Graph(n, std::move(edges));
  }
  if (p > 0.0) {
    // Geometric skipping over the lexicographic edge enumeration.
    const double log1mp = std::log1p(-p);
    std::int64_t total = static_cast<std::int64_t>(n) * (n - 1) / 2;
    std::int64_t idx = -1;
    for (;;) {
      idx += 1 + static_cast<std::int64_t>(std::floor(std::log(rng.uniform_positive()) / log1mp));
      if (idx >= total) break;
      // Invert idx -> (u, v).
      std::int64_t rem = idx;
      NodeId u = 0;
      while (rem >= n - 1 - u) {
        rem -= n - 1 - u;
        ++u;
      }
      const NodeId v = static_cast<NodeId>(u + 1 + rem);
      edges.push_back({u, v});
    }
  }
  return Graph(n, std::move(edges));
}

Graph random_connected_regular(Rng& rng, NodeId n, NodeId d, int max_attempts) {
  DG_REQUIRE(d >= 1, "a connected regular graph needs degree >= 1");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Graph g = random_regular(rng, n, d);
    if (is_connected(g)) return g;
  }
  throw std::logic_error("failed to sample a connected regular graph");
}

}  // namespace rumor
