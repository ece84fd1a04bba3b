#include "dynamic/absolute_adversary.h"

#include <algorithm>
#include <cmath>

#include "graph/builders.h"
#include "support/contracts.h"

namespace rumor {

AbsoluteAdversaryNetwork::AbsoluteAdversaryNetwork(NodeId n, double rho, std::uint64_t seed)
    : n_(n), rho_(rho), rng_(seed), topo_(n) {
  DG_REQUIRE(n >= 64, "adversary needs a reasonably large vertex set");
  DG_REQUIRE(rho > 0.0 && rho <= 1.0, "rho must lie in (0, 1]");
  // Even Δ ∈ {⌈1/ρ⌉, ⌈1/ρ⌉+1}, clamped to >= 4 so the hub construction exists
  // (for ρ near 1 this keeps ρ̄ = 1/(Δ+1) = Θ(1) = Θ(ρ)).
  auto ceil_inv = static_cast<NodeId>(std::ceil(1.0 / rho));
  delta_ = ceil_inv % 2 == 0 ? ceil_inv : static_cast<NodeId>(ceil_inv + 1);
  delta_ = std::max<NodeId>(delta_, 4);
  DG_REQUIRE(rho >= 10.0 / static_cast<double>(n), "paper requires rho >= 10/n");
  DG_REQUIRE(delta_ + 1 <= n / 6, "delta too large for the shrinking B side");

  const NodeId a0 = n / 2;
  for (NodeId u = 0; u < a0; ++u) a_side_.push_back(u);
  for (NodeId u = a0; u < n; ++u) b_side_.push_back(u);
  rebuild(nullptr);
}

void AbsoluteAdversaryNetwork::rebuild(const InformedView* informed) {
  const auto a_count = static_cast<NodeId>(a_side_.size());
  const auto b_count = static_cast<NodeId>(b_side_.size());
  DG_ASSERT(a_count >= 9 && delta_ <= a_count - 5, "A side too small for the hub graph");
  DG_ASSERT(b_count > delta_, "B side too small for a delta-regular graph");

  // Put an informed node first so the hub (local index 0 of the hub circulant)
  // is informed: "we may assume u is always informed" in the Theorem 1.5 proof.
  if (informed != nullptr) {
    auto it = std::find_if(a_side_.begin(), a_side_.end(),
                           [&](NodeId u) { return informed->is_informed(u); });
    if (it != a_side_.end()) std::iter_swap(a_side_.begin(), it);
  }

  // Both circulants are relabelled edge by edge into one list, which the
  // builder canonicalizes.
  std::vector<Edge> edges = hub_circulant_edges(a_count, delta_);
  for (Edge& e : edges) {
    e = {a_side_[static_cast<std::size_t>(e.u)], a_side_[static_cast<std::size_t>(e.v)]};
  }
  for (const Edge& e : regular_circulant_edges(b_count, delta_))
    edges.push_back({b_side_[static_cast<std::size_t>(e.u)], b_side_[static_cast<std::size_t>(e.v)]});
  hub_ = a_side_.front();
  boundary_ = b_side_.front();
  edges.push_back({hub_, boundary_});

  const Graph& g = topo_.rebuild(std::move(edges));
  ++rebuilds_;

  DG_ENSURE(g.degree(hub_) == delta_ + 1, "hub must have degree delta + 1");
  DG_ENSURE(g.degree(boundary_) == delta_ + 1, "boundary must have degree delta + 1");
}

const Graph& AbsoluteAdversaryNetwork::graph_at(std::int64_t t, const InformedView& informed) {
  DG_REQUIRE(t >= last_step_, "graph_at must be called with non-decreasing t");
  if (t == last_step_ || t == 0) {
    last_step_ = t;
    last_informed_count_ = informed.informed_count();
    return topo_.current();
  }
  last_step_ = t;

  // Fast path: nothing newly informed means B cannot have shrunk.
  if (informed.informed_count() == last_informed_count_) return topo_.current();
  last_informed_count_ = informed.informed_count();

  std::vector<NodeId> b_next;
  b_next.reserve(b_side_.size());
  for (NodeId u : b_side_)
    if (!informed.is_informed(u)) b_next.push_back(u);

  if (static_cast<NodeId>(b_next.size()) >= n_ / 6 && b_next.size() < b_side_.size()) {
    for (NodeId u : b_side_)
      if (informed.is_informed(u)) a_side_.push_back(u);
    b_side_ = std::move(b_next);
    rebuild(&informed);
  }
  return topo_.current();
}

GraphProfile AbsoluteAdversaryNetwork::current_profile() const {
  GraphProfile p;
  p.connected = true;
  // ρ̄ = 1/(Δ+1) exactly: the bridge endpoints have degree Δ+1 and every other
  // edge has an endpoint of degree <= Δ.
  p.abs_diligence = 1.0 / (static_cast<double>(delta_) + 1.0);
  // Bridge cut: one crossing edge over the smaller volume side.
  const double vol_a = 4.0 * (static_cast<double>(a_side_.size()) - 1.0) + delta_ + 1.0;
  const double vol_b = static_cast<double>(delta_) * static_cast<double>(b_side_.size()) + 1.0;
  p.conductance = 1.0 / std::min(vol_a, vol_b);
  // Diligence: the A-side cut has d̄ ≈ 4 and only the bridge crossing, so
  // ρ <= ~4/(Δ+1); use that as the family's analytic value.
  p.diligence = 4.0 / (static_cast<double>(delta_) + 1.0);
  p.exact = false;
  return p;
}

double AbsoluteAdversaryNetwork::theorem13_bound() const {
  return 2.0 * static_cast<double>(n_) * (static_cast<double>(delta_) + 1.0);
}

}  // namespace rumor
