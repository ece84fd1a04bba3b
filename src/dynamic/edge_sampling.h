// Edge-sampling dynamic network: every step exposes an independent random
// subgraph of a fixed base graph, each edge present with probability p.
//
// This is the simplest "unreliable links" dynamic model: the expected exposed
// degree is p·d, the exposed graphs are frequently disconnected for small p,
// and the Theorem 1.1/1.3 sums advance only on the lucky connected steps —
// a natural stress test for the bound machinery and a common wireless model.
//
// Each resample also reports the symmetric difference against the previous
// sample as a TopologyDelta: EvolvingNetwork asks the builder, which diffs
// its two snapshots on request and touches no RNG stream, so the per-seed
// graph sequence is exactly what it has always been. For p near 0 or 1 the
// delta is small and the jump engine takes its incremental rate path.
#pragma once

#include "dynamic/evolving_network.h"
#include "stats/rng.h"

namespace rumor {

class EdgeSamplingNetwork final : public EvolvingNetwork {
 public:
  EdgeSamplingNetwork(Graph base, double p, std::uint64_t seed = 29);

  std::string name() const override { return "edge-sampling"; }

  const Graph& base_graph() const { return base_; }

 private:
  // Draws the next sample from the one sequential stream; every step, G(0)
  // included, consumes it the same way.
  void advance(std::uint64_t step) override;

  Graph base_;
  double p_;
  Rng rng_;
};

}  // namespace rumor
