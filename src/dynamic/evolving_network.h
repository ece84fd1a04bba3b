// Base of the informed-independent stochastic families (edge_markovian,
// edge_sampling, mobile_geometric): G(t) follows from G(t-1) and the
// family's own seeded streams, one integer step at a time, whatever the
// informed set.
//
// The base owns everything those families share: the TopologyBuilder their
// snapshots live in; graph_at's step loop, which checks that t never
// decreases and calls the family's advance(s) once for every crossed step
// s >= 1; the delta rule — a call that crossed exactly one step reports that
// step's delta, a call that crossed several withdraws it, and a repeat call
// at the same t keeps the last report; and the lent pool, which also drives
// the builder's tiled delta merge. A family supplies only its constructor
// (which publishes G(0)) and advance.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "dynamic/dynamic_network.h"
#include "graph/topology.h"

namespace rumor {

class EvolvingNetwork : public DynamicNetwork {
 public:
  NodeId node_count() const final { return topo_.node_count(); }
  const Graph& graph_at(std::int64_t t, const InformedView& informed) final;
  const Graph& current_graph() const final { return topo_.current(); }

  bool reports_deltas() const final { return true; }
  // The builder's delta of the latest step: a merge reports the family's own
  // spans; a rebuild's diff against the previous snapshot is taken here, on
  // first request, once per step.
  std::optional<TopologyDelta> last_delta() const final;
  void set_parallel_evolution(ParallelEvolution* evolution) final {
    topo_.set_parallel_evolution(evolution);
  }

 protected:
  explicit EvolvingNetwork(NodeId n) : topo_(n) {}

  // Moves the topology from G(step - 1) to G(step), publishing exactly one
  // snapshot through topo_. graph_at passes step >= 1; a family whose G(0) is
  // drawn the same way may call advance(0) from its constructor. `step` is
  // also the stream counter of the tiled counter-based families.
  virtual void advance(std::uint64_t step) = 0;

  // fn(tile) for every tile in [0, tiles): on the lent pool when there is
  // one and more than one tile, otherwise serially in tile order.
  void run_tiles(std::int64_t tiles, const std::function<void(std::int64_t)>& fn);

  TopologyBuilder topo_;

 private:
  std::int64_t step_ = 0;  // the step current_graph() exposes
  bool delta_valid_ = false;
};

}  // namespace rumor
