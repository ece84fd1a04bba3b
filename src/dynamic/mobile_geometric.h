// Mobile-agents proximity network (related work [22, 20] and the "mobile
// wireless communication networks" motivation from the introduction).
//
// n agents live on the unit torus [0,1)²; at every integer step each agent
// takes an independent uniform step of length at most `step`, and two agents
// are connected whenever their torus distance is at most `radius`. The graph
// can be disconnected — exactly the situation in which the paper's ⌈Φ⌉
// indicator nulls a step's contribution in Theorem 1.3.
//
// Movement is *tiled and counter-based*, the same scheme as the
// edge-Markovian family: the agent range is cut into fixed tiles of
// kAgentsPerTile, and every step samples each tile's displacements from its
// own RNG stream seeded by (seed, step, tile) — two uniforms per agent
// (angle, then length) in ascending agent order. Stream counter 0 draws the
// initial positions. The per-seed position sequence is therefore a pure
// function of (n, radius, step, seed), independent of whether an engine lends
// a ParallelEvolution pool and of that pool's worker count. The rebuild's
// cell-grid passes (per-agent cell indexing, per-cell-row pair scans) run on
// the same lent pool; they draw no randomness and the builder sorts and
// dedupes the emitted pairs, so parallel emission order cannot change a
// snapshot either.
//
// Small agent steps move few edges, so each step also reports a
// TopologyDelta: EvolvingNetwork asks the builder, which diffs the new
// snapshot against the previous one on request and consumes no randomness.
#pragma once

#include <vector>

#include "dynamic/evolving_network.h"
#include "stats/rng.h"

namespace rumor {

class MobileGeometricNetwork final : public EvolvingNetwork {
 public:
  // Agents per movement tile. Fixed (never derived from the worker count) so
  // the tiling — and with it the per-seed sequence — depends only on n.
  static constexpr std::int64_t kAgentsPerTile = std::int64_t{1} << 13;

  MobileGeometricNetwork(NodeId n, double radius, double step, std::uint64_t seed = 23);

  std::string name() const override { return "mobile-geometric"; }

  const std::vector<double>& xs() const { return x_; }
  const std::vector<double>& ys() const { return y_; }

 private:
  // Moves every agent from stream counter `step`, then rebuilds.
  void advance(std::uint64_t step) override;
  void rebuild();
  std::int64_t agent_tiles() const {
    return (static_cast<std::int64_t>(n_) + kAgentsPerTile - 1) / kAgentsPerTile;
  }

  NodeId n_ = 0;
  double radius_ = 0.1;
  double step_ = 0.02;
  std::uint64_t seed_ = 0;
  std::vector<double> x_, y_;

  // Rebuild scratch, reused across steps (capacity only ever grows): the
  // cell grid as a counting-sorted CSR layout plus per-row pair outputs.
  std::vector<std::int32_t> cell_index_;    // agent -> flat cell id
  std::vector<std::int64_t> cell_start_;    // CSR offsets into cell_agents_
  std::vector<std::int64_t> cell_cursor_;   // counting-sort fill cursors
  std::vector<NodeId> cell_agents_;         // agents grouped by cell
  std::vector<std::vector<Edge>> row_edges_;  // per-cell-row emitted pairs
};

}  // namespace rumor
