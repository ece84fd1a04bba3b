// Dynamic evolving networks: G = {G(t)}, t = 0, 1, 2, ...
//
// All graphs share one vertex set of size n; the topology exposed during the
// continuous-time interval [t, t+1) is G(t). The paper's tightness
// constructions are *adaptive adversaries*: G(t) may depend on which nodes are
// informed at time t, so the engine hands the informed set to the network at
// every integer boundary.
//
// Contract:
//  * graph_at(t, informed) is called with non-decreasing t (0, 1, 2, ...);
//  * the returned reference stays valid until the next graph_at call;
//  * Graph::version() changes iff the topology changed, letting engines skip
//    rebuilding their rate structures when the adversary kept the graph;
//  * families whose evolution is naturally a small edge delta may report it
//    through last_delta() as a TopologyDelta (graph/topology.h), letting
//    engines update their rate structures in O(delta) instead of O(n) (see
//    core/rate_model.h); the delta's spans stay valid until the next
//    graph_at call, like the snapshot they describe;
//  * families with tiled per-step evolution accept a ParallelEvolution pool
//    (support/parallel_evolution.h) through set_parallel_evolution().
//
// The informed-independent stochastic families implement all of this once,
// through dynamic/evolving_network.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "graph/graph.h"
#include "graph/profile.h"
#include "graph/topology.h"
#include "support/bitset.h"
#include "support/parallel_evolution.h"

namespace rumor {

// Read-only view of the engine's informed bitset and its population count,
// passed to adaptive networks.
class InformedView {
 public:
  InformedView(const Bitset* bits, const std::int64_t* count) : bits_(bits), count_(count) {}

  bool is_informed(NodeId u) const { return bits_->test(static_cast<std::size_t>(u)); }
  std::int64_t informed_count() const { return *count_; }
  std::int64_t node_count() const { return static_cast<std::int64_t>(bits_->size()); }

 private:
  const Bitset* bits_;
  const std::int64_t* count_;
};

class DynamicNetwork {
 public:
  virtual ~DynamicNetwork() = default;

  virtual NodeId node_count() const = 0;

  // Topology for the interval [t, t+1); may adapt to the informed set.
  virtual const Graph& graph_at(std::int64_t t, const InformedView& informed) = 0;

  // The most recently exposed graph (valid after the first graph_at call).
  virtual const Graph& current_graph() const = 0;

  // Φ/ρ/ρ̄ of the current graph. The default computes exact values for small
  // graphs and safe lower bounds otherwise; families with closed forms
  // override this with the paper's analytic expressions.
  virtual GraphProfile current_profile() const;

  // Where the rumor should be injected to match the paper's setup (e.g. a node
  // of A_0 for the Section-4 adversary, a leaf for the dynamic star).
  virtual NodeId suggested_source() const { return 0; }

  virtual std::string name() const = 0;

  // True when this family can report per-change-point deltas; engines use it
  // to decide whether delta-path bookkeeping (dirty-node tracking) is worth
  // maintaining at all.
  virtual bool reports_deltas() const { return false; }

  // The delta between the previous snapshot and current_graph(). Valid only
  // immediately after a graph_at call, and only when that call advanced the
  // topology by exactly one change-point (a call that crossed several steps
  // composes several deltas and must return nullopt instead). Families that
  // rebuild from scratch always return nullopt.
  virtual std::optional<TopologyDelta> last_delta() const { return std::nullopt; }

  // Lends (or with nullptr revokes) a parallel-for for the family's own
  // per-step evolution. The context must stay valid until revoked. Families
  // without tiled evolution ignore it; using it never changes the graph
  // sequence (tiles and their RNG streams are fixed by n and the seed, not by
  // the worker count).
  virtual void set_parallel_evolution(ParallelEvolution* evolution) { (void)evolution; }
};

}  // namespace rumor
