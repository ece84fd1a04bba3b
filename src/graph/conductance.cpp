#include "graph/conductance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "graph/connectivity.h"
#include "support/contracts.h"

namespace rumor {

std::int64_t cut_size(const Graph& g, const std::vector<bool>& in_s) {
  DG_REQUIRE(in_s.size() == static_cast<std::size_t>(g.node_count()),
             "membership size must equal node count");
  std::int64_t cut = 0;
  g.for_each_edge([&](NodeId u, NodeId v) {
    if (in_s[static_cast<std::size_t>(u)] != in_s[static_cast<std::size_t>(v)]) ++cut;
  });
  return cut;
}

std::int64_t subset_volume(const Graph& g, const std::vector<bool>& in_s) {
  DG_REQUIRE(in_s.size() == static_cast<std::size_t>(g.node_count()),
             "membership size must equal node count");
  std::int64_t vol = 0;
  for (NodeId u = 0; u < g.node_count(); ++u)
    if (in_s[static_cast<std::size_t>(u)]) vol += g.degree(u);
  return vol;
}

double exact_conductance(const Graph& g) {
  const NodeId n = g.node_count();
  DG_REQUIRE(n >= 2, "conductance needs at least two nodes");
  DG_REQUIRE(n <= 24, "exact conductance is exponential; use spectral bounds for n > 24");
  if (!is_connected(g)) return 0.0;

  const std::int64_t vol_g = g.volume();
  DG_REQUIRE(vol_g > 0, "conductance of an empty graph is undefined");

  double best = std::numeric_limits<double>::infinity();
  const std::uint32_t limit = 1u << n;
  for (std::uint32_t mask = 1; mask + 1 < limit; ++mask) {
    std::int64_t vol_s = 0;
    for (NodeId u = 0; u < n; ++u)
      if (mask & (1u << u)) vol_s += g.degree(u);
    const std::int64_t vol_min = std::min(vol_s, vol_g - vol_s);
    if (vol_min == 0) continue;  // isolated side contributes nothing

    std::int64_t cut = 0;
    g.for_each_edge([&](NodeId u, NodeId v) {
      if (((mask >> u) & 1u) != ((mask >> v) & 1u)) ++cut;
    });
    best = std::min(best, static_cast<double>(cut) / static_cast<double>(vol_min));
  }
  return best;
}

ConductanceBounds spectral_conductance_bounds(const Graph& g, int iterations) {
  ConductanceBounds out;
  const NodeId n = g.node_count();
  if (n < 2 || g.edge_count() == 0 || !is_connected(g)) return out;

  // Normalized adjacency M = D^{-1/2} A D^{-1/2} has top eigenpair
  // (1, D^{1/2} 1). We power-iterate on (M + I)/2 (spectrum in [0, 1]) with
  // the top eigenvector deflated to find μ₂, then λ₂ = 1 − μ₂ where μ₂ is the
  // second eigenvalue of M.
  const auto nn = static_cast<std::size_t>(n);
  std::vector<double> inv_sqrt_deg(nn);
  std::vector<double> top(nn);
  double top_norm_sq = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    const double d = g.degree(u);
    DG_ASSERT(d > 0, "connected graph with n >= 2 cannot have isolated nodes");
    inv_sqrt_deg[static_cast<std::size_t>(u)] = 1.0 / std::sqrt(d);
    top[static_cast<std::size_t>(u)] = std::sqrt(d);
    top_norm_sq += d;
  }
  const double top_norm = std::sqrt(top_norm_sq);
  for (auto& t : top) t /= top_norm;

  // Deterministic-but-generic start vector, deflated against `top`.
  std::vector<double> x(nn), y(nn);
  for (std::size_t i = 0; i < nn; ++i) x[i] = 1.0 + 0.618 * std::sin(static_cast<double>(i) + 1.0);

  auto deflate = [&](std::vector<double>& v) {
    double dot = 0.0;
    for (std::size_t i = 0; i < nn; ++i) dot += v[i] * top[i];
    for (std::size_t i = 0; i < nn; ++i) v[i] -= dot * top[i];
  };
  auto normalize = [&](std::vector<double>& v) {
    double norm = 0.0;
    for (double t : v) norm += t * t;
    norm = std::sqrt(norm);
    if (norm > 0.0)
      for (double& t : v) t /= norm;
    return norm;
  };

  deflate(x);
  normalize(x);

  double mu_shifted = 0.0;  // eigenvalue of (M + I)/2 restricted to top^⊥
  for (int it = 0; it < iterations; ++it) {
    // y = (M x + x) / 2, accumulated edge by edge in edges() order — the
    // summation order the bounds goldens were recorded with.
    for (std::size_t i = 0; i < nn; ++i) y[i] = x[i];
    g.for_each_edge([&](NodeId a, NodeId b) {
      const auto u = static_cast<std::size_t>(a);
      const auto v = static_cast<std::size_t>(b);
      const double w = inv_sqrt_deg[u] * inv_sqrt_deg[v];
      y[u] += w * x[v];
      y[v] += w * x[u];
    });
    for (auto& t : y) t *= 0.5;
    deflate(y);
    mu_shifted = normalize(y);
    x.swap(y);
  }

  // mu_shifted approximates (μ₂ + 1)/2 from below (power iteration converges
  // from below in norm); λ₂ = 1 − μ₂ = 2(1 − mu_shifted).
  const double lambda2 = std::clamp(2.0 * (1.0 - mu_shifted), 0.0, 2.0);
  out.lambda2 = lambda2;
  out.lower = lambda2 / 2.0;
  out.upper = std::sqrt(2.0 * lambda2);
  return out;
}

}  // namespace rumor
