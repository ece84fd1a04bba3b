// Deterministic graph families.
//
// These cover every deterministic construction the paper relies on:
//  * cliques, stars, paths, cycles, complete bipartite graphs (Sections 1, 6);
//  * circulants as explicit connected Δ-regular graphs G(A, Δ) (Section 5.1);
//  * the "4-regular with one hub of degree Δ" graph G(A, 4, Δ) (Section 5.1),
//    realized as a circulant with a degree-preserving rewiring;
//  * the Figure-1 shapes: clique with a pendant edge and two cliques joined by
//    a bridge.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace rumor {

// Complete graph K_n.
Graph make_clique(NodeId n);

// Star K_{1, n-1}: node 0 is the centre, nodes 1..n-1 are leaves. For the
// generality needed by the dynamic star (Fig. 1(b)) a centre can be chosen:
Graph make_star(NodeId n, NodeId center = 0);

// Path 0-1-...-n-1.
Graph make_path(NodeId n);

// Cycle on n >= 3 nodes.
Graph make_cycle(NodeId n);

// Complete bipartite graph between the first `a` nodes and the next `b`.
Graph make_complete_bipartite(NodeId a, NodeId b);

// Circulant graph: node i adjacent to i ± o (mod n) for every offset o.
// Offsets must be distinct values in [1, n/2].
Graph make_circulant(NodeId n, const std::vector<NodeId>& offsets);

// Connected d-regular circulant on n nodes: offsets 1..d/2 (d even, d < n),
// plus the antipodal offset n/2 when d is odd and n is even.
// This is the concrete realization of the paper's G(A, d) (Section 5.1).
Graph make_regular_circulant(NodeId n, NodeId d);

// The paper's G(A, 4, Δ) (Section 5.1): an m-node connected simple graph where
// every node has degree 4 except node `hub` = 0 which has degree d_hub. Both 4
// and d_hub must be even, 4 <= d_hub <= m - 5. Built from the {1,2}-circulant
// by removing disjoint edges {a_i, b_i} away from the hub and adding
// {0, a_i}, {0, b_i}, which preserves all other degrees and connectivity.
Graph make_hub_circulant(NodeId m, NodeId d_hub);

// The normalized, unsorted edge lists make_regular_circulant and
// make_hub_circulant build from: for callers that relabel them into a larger
// graph.
std::vector<Edge> regular_circulant_edges(NodeId n, NodeId d);
std::vector<Edge> hub_circulant_edges(NodeId m, NodeId d_hub);

// Figure 1(a), G(0): clique on nodes 0..n-1 with a pendant node n attached to
// node `attach`. Total n+1 nodes.
Graph make_pendant_clique(NodeId n, NodeId attach = 0);

// Figure 1(a), G(1): clique on nodes 0..n_left-1 and clique on nodes
// n_left..n_left+n_right-1, joined by the single bridge {bridge_left,
// bridge_right}. bridge_left must lie in the left clique and bridge_right in
// the right one.
Graph make_two_cliques_bridge(NodeId n_left, NodeId n_right, NodeId bridge_left,
                              NodeId bridge_right);

// Union of an arbitrary list of edge sets over the same vertex set; edge lists
// must stay disjoint (duplicates are construction errors, keeping everything
// a simple graph).
Graph compose_edges(NodeId n, std::vector<std::vector<Edge>> edge_groups);

}  // namespace rumor
