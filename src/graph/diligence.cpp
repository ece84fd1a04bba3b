#include "graph/diligence.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "graph/connectivity.h"
#include "support/contracts.h"

namespace rumor {

double cut_diligence(const Graph& g, const std::vector<bool>& in_s) {
  DG_REQUIRE(in_s.size() == static_cast<std::size_t>(g.node_count()),
             "membership size must equal node count");
  std::int64_t vol_s = 0;
  std::int64_t size_s = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (in_s[static_cast<std::size_t>(u)]) {
      vol_s += g.degree(u);
      ++size_s;
    }
  }
  DG_REQUIRE(size_s > 0, "S must be non-empty");
  DG_REQUIRE(vol_s > 0, "S must have positive volume");
  const double dbar = static_cast<double>(vol_s) / static_cast<double>(size_s);

  double best = std::numeric_limits<double>::infinity();
  g.for_each_edge([&](NodeId u, NodeId v) {
    if (in_s[static_cast<std::size_t>(u)] == in_s[static_cast<std::size_t>(v)]) return;
    const double du = g.degree(u);
    const double dv = g.degree(v);
    best = std::min(best, std::max(dbar / du, dbar / dv));
  });
  return best;
}

double exact_diligence(const Graph& g) {
  const NodeId n = g.node_count();
  DG_REQUIRE(n >= 2, "diligence needs at least two nodes");
  DG_REQUIRE(n <= 24, "exact diligence is exponential; restrict to small n");
  if (!is_connected(g)) return 0.0;

  const std::int64_t vol_g = g.volume();
  double best = std::numeric_limits<double>::infinity();
  const std::uint32_t limit = 1u << n;
  std::vector<bool> in_s(static_cast<std::size_t>(n));
  for (std::uint32_t mask = 1; mask + 1 < limit; ++mask) {
    std::int64_t vol_s = 0;
    std::int64_t size_s = 0;
    for (NodeId u = 0; u < n; ++u) {
      const bool b = (mask >> u) & 1u;
      in_s[static_cast<std::size_t>(u)] = b;
      if (b) {
        vol_s += g.degree(u);
        ++size_s;
      }
    }
    if (vol_s == 0 || 2 * vol_s > vol_g) continue;  // paper: 0 < vol(S) <= vol(G)/2
    best = std::min(best, cut_diligence(g, in_s));
  }
  DG_ASSERT(best < std::numeric_limits<double>::infinity(),
            "connected graph must have a valid cut");
  return best;
}

double absolute_diligence(const Graph& g) {
  if (g.edge_count() == 0) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  g.for_each_edge([&](NodeId u, NodeId v) {
    const double du = g.degree(u);
    const double dv = g.degree(v);
    best = std::min(best, std::max(1.0 / du, 1.0 / dv));
  });
  return best;
}

double diligence_lower_bound(const Graph& g) {
  if (g.node_count() < 2 || g.edge_count() == 0 || !is_connected(g)) return 0.0;
  return static_cast<double>(g.min_degree()) / static_cast<double>(g.max_degree());
}

}  // namespace rumor
