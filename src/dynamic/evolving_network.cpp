#include "dynamic/evolving_network.h"

#include "support/contracts.h"

namespace rumor {

const Graph& EvolvingNetwork::graph_at(std::int64_t t, const InformedView&) {
  DG_REQUIRE(t >= step_, "graph_at must be called with non-decreasing t");
  const std::int64_t steps = t - step_;
  for (; step_ < t; ++step_) advance(static_cast<std::uint64_t>(step_ + 1));
  // The delta describes exactly one change-point; a call that crossed several
  // steps composed several, so the report is withdrawn until the next step.
  if (steps == 1) {
    delta_valid_ = true;
  } else if (steps > 1) {
    delta_valid_ = false;
  }
  return topo_.current();
}

std::optional<TopologyDelta> EvolvingNetwork::last_delta() const {
  if (!delta_valid_) return std::nullopt;
  return topo_.last_delta();
}

void EvolvingNetwork::run_tiles(std::int64_t tiles, const std::function<void(std::int64_t)>& fn) {
  ParallelEvolution* pool = topo_.parallel_evolution();
  if (pool != nullptr && tiles > 1) {
    pool->run(tiles, fn);
  } else {
    for (std::int64_t tile = 0; tile < tiles; ++tile) fn(tile);
  }
}

}  // namespace rumor
