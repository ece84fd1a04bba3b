// Edge-Markovian evolving graph (Clementi et al., ESA 2013 — related work [7]).
//
// Between consecutive steps every non-edge is born with probability p and
// every edge dies with probability q, independently. With p = Ω(1/n) and
// constant q, the (synchronous) push algorithm spreads a rumor in O(log n)
// rounds w.h.p. — extension experiment E13 reproduces that claim with this
// family.
//
// Evolution is *tiled and counter-based*: the linear pair-index space
// [0, n(n-1)/2) is cut into fixed-width tiles, and every step samples each
// tile from its own RNG stream seeded by (seed, step, tile) — deaths first,
// in ascending pair-index order over the tile's current edges, then births by
// geometric skipping over the tile's non-edges. The per-seed graph sequence
// is therefore a pure function of (n, p, q, seed, start_empty): independent
// of the standard library (no hash-iteration order anywhere), of whether an
// engine lends a ParallelEvolution pool, and of that pool's worker count.
// docs/ARCHITECTURE.md §"The portable edge-Markovian sequence" states the
// exact contract; the golden-sequence tests pin it across stdlibs, at one
// tile and across tile boundaries. A tile finds its slice of the sorted edge
// list by a galloping search for its boundary pair, so cutting the tiles
// costs O(tiles·log(m/tiles)), not a pass over the snapshot.
//
// Each step's births/deaths are merged into the snapshot with
// apply_delta_sorted, and the builder hands those same buffers back as the
// reported TopologyDelta, so the jump engine can take its O(Δ·deg)
// incremental rate path instead of an O(n) rebuild. The step loop, the delta
// rule and the lent pool live in EvolvingNetwork.
#pragma once

#include <vector>

#include "dynamic/evolving_network.h"
#include "stats/rng.h"

namespace rumor {

class EdgeMarkovianNetwork final : public EvolvingNetwork {
 public:
  // Pairs per evolution tile. Fixed (never derived from the worker count) so
  // the tiling — and with it the per-seed sequence — depends only on n.
  static constexpr std::int64_t kPairsPerTile = std::int64_t{1} << 24;

  // Starts from G(0) ~ the stationary density p/(p+q) unless `start_empty`.
  // q = 0 is the frozen-edges regime: edges are born and never die (its
  // stationary density is 1, so pair it with `start_empty` unless you want
  // the complete graph).
  EdgeMarkovianNetwork(NodeId n, double p, double q, std::uint64_t seed = 17,
                       bool start_empty = false);

  std::string name() const override { return "edge-markovian"; }

 private:
  // One evolution step, from stream counter `step` (0 is the stationary
  // start drawn by the constructor).
  void advance(std::uint64_t step) override;

  NodeId n_ = 0;
  double p_ = 0.0;
  double q_ = 0.0;
  std::uint64_t seed_ = 0;

  // Per-tile outputs, concatenated in tile order into the delta buffers the
  // builder merges and reports; all reused across steps (capacity only ever
  // grows).
  std::vector<std::vector<Edge>> tile_removed_;
  std::vector<std::vector<Edge>> tile_added_;
  std::vector<std::int64_t> tile_edge_start_;  // per-tile [begin, end) into the edge list
  std::vector<Edge> removed_;
  std::vector<Edge> added_;
};

}  // namespace rumor
