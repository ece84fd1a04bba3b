// Random graph families.
//
// The paper's Section 4 construction needs "arbitrary 4-regular expander
// graphs". Random d-regular graphs are expanders with high probability, so we
// realize them with the configuration model plus double-edge-swap repair.
#pragma once

#include "graph/graph.h"
#include "stats/rng.h"

namespace rumor {

// Random d-regular simple graph via the configuration model: stubs are paired
// uniformly at random; self-loops and parallel edges are then removed by
// random double edge swaps, which preserves uniform-ish degree sequence
// exactly (every node keeps degree d). Requires n*d even, 0 <= d < n.
Graph random_regular(Rng& rng, NodeId n, NodeId d);

// random_regular's edge list, unsorted, from the same draws: for callers that
// relabel it into a larger graph.
std::vector<Edge> random_regular_edges(Rng& rng, NodeId n, NodeId d);

// Erdős–Rényi G(n, p).
Graph erdos_renyi(Rng& rng, NodeId n, double p);

// Random connected d-regular graph: resamples random_regular until connected
// (a.a.s. one draw suffices for d >= 3).
Graph random_connected_regular(Rng& rng, NodeId n, NodeId d, int max_attempts = 64);

}  // namespace rumor
