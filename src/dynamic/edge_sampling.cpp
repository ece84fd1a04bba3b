#include "dynamic/edge_sampling.h"

#include <vector>

#include "support/contracts.h"

namespace rumor {

EdgeSamplingNetwork::EdgeSamplingNetwork(Graph base, double p, std::uint64_t seed)
    : EvolvingNetwork(base.node_count()), base_(std::move(base)), p_(p), rng_(seed) {
  DG_REQUIRE(base_.node_count() >= 1, "base graph must have nodes");
  DG_REQUIRE(p > 0.0 && p <= 1.0, "edge probability must lie in (0, 1]");
  advance(0);
}

void EdgeSamplingNetwork::advance(std::uint64_t) {
  // One draw per base edge, in edges() order. That order is normalized and
  // sorted, and so is any subset of it, so the snapshot needs no sorting.
  std::vector<Edge> kept;
  kept.reserve(static_cast<std::size_t>(static_cast<double>(base_.edge_count()) * p_) + 8);
  base_.for_each_edge([&](NodeId u, NodeId v) {
    if (rng_.flip(p_)) kept.push_back({u, v});
  });
  topo_.rebuild_presorted(std::move(kept));
}

}  // namespace rumor
