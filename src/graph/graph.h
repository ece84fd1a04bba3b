// Immutable simple undirected graph in CSR (compressed sparse row) layout.
//
// A Graph is constructed once from an edge list and never mutated; the dynamic
// networks of the paper expose a *sequence* of Graph values. Each instance
// carries a process-unique version number so simulation engines can detect "the
// topology actually changed at this step" with a single integer compare.
//
// The CSR is the only stored form. The constructor canonicalizes its edge
// list, fills the CSR from it and drops it; edges() reads the list back from
// the rows, and per-pass readers walk that order with for_each_edge.
//
// Construction is O(n + m): edges are normalized and ordered with two stable
// counting-sort passes (by v, then by u), and the CSR is filled straight from
// the sorted list — degrees counted at both endpoints, a prefix sum, then two
// ordered passes (first every neighbour below the node, then every neighbour
// above it), which leaves each adjacency list sorted without any comparison
// sort and with no scratch copy of the edges. The degree count and the
// below-neighbour pass write at a random node, so both prefetch a fixed
// distance ahead; prefetches are advisory and leave every row byte-identical.
//
// Every snapshot path — this constructor and TopologyBuilder's rebuild,
// rebuild_presorted and apply_delta_sorted — goes through this one fill.
// perfbench's layer split relies on that: it prices the delta merge as
// apply_delta_sorted minus rebuild_presorted. Dynamic families that rebuild
// topologies every change-point should go through graph/topology.h's
// TopologyBuilder, which recycles snapshot buffers and keeps the only edge
// lists, for delta rebuilds against the previous snapshot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace rumor {

using NodeId = std::int32_t;

// Ordered (u, v)-lexicographically: the order of every stored edge list.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend bool operator<(const Edge& a, const Edge& b) {
    return a.u < b.u || (a.u == b.u && a.v < b.v);
  }
};

// Borrowed raw view of a graph's CSR arrays, for engine hot loops that want
// adjacency access without per-call contract checks. Valid as long as the
// Graph it came from is alive.
struct CsrView {
  const std::int64_t* offsets = nullptr;  // size n+1
  const NodeId* adjacency = nullptr;      // size 2m
  NodeId n = 0;

  NodeId degree(NodeId u) const {
    return static_cast<NodeId>(offsets[u + 1] - offsets[u]);
  }
  std::span<const NodeId> neighbors(NodeId u) const {
    return {adjacency + offsets[u], static_cast<std::size_t>(offsets[u + 1] - offsets[u])};
  }
};

namespace detail {
// Puts an arbitrary edge list into the one canonical form every snapshot
// stores: endpoints range-checked and normalized (u < v, no self-loops),
// (u, v)-lexicographically sorted by a stable two-pass counting sort (skipped
// when the list is already sorted), and duplicate-free — a duplicate is
// rejected, or with `dedupe` collapsed to one. The sorted duplicate-free
// form of an edge set is unique, so every caller gets the same bytes. Shared
// by the Graph constructor and TopologyBuilder::rebuild, which reuses
// `tmp`/`count` across rebuilds.
void canonicalize_edges(NodeId n, std::vector<Edge>& edges, bool dedupe, std::vector<Edge>& tmp,
                        std::vector<std::int64_t>& count);
}  // namespace detail

class Graph {
 public:
  // Empty graph on zero nodes.
  Graph() = default;

  // Builds a simple graph on nodes {0, ..., n-1}. Edges are normalized to
  // u < v; self-loops and duplicate edges are rejected.
  Graph(NodeId n, std::vector<Edge> edges);

  NodeId node_count() const { return n_; }
  std::int64_t edge_count() const { return static_cast<std::int64_t>(adjacency_.size() / 2); }

  // Degree of node u.
  NodeId degree(NodeId u) const;

  // Neighbors of u in ascending order.
  std::span<const NodeId> neighbors(NodeId u) const;

  // Borrowed raw CSR arrays for engine hot paths (no per-call checks).
  CsrView csr() const { return {offsets_.data(), adjacency_.data(), n_}; }

  // Normalized (u < v) edges in lexicographic order, read back from the rows:
  // an O(m) copy on every call. Per-pass readers use for_each_edge.
  std::vector<Edge> edges() const;

  // Calls fn(u, v) for every edge in edges() order — rows u ascending, and in
  // each row the neighbours v > u ascending — without materializing the list.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    const CsrView g = csr();
    for (NodeId u = 0; u < n_; ++u) {
      const std::span<const NodeId> row = g.neighbors(u);
      const auto above = std::upper_bound(row.begin(), row.end(), u);
      for (auto it = above; it != row.end(); ++it) fn(u, *it);
    }
  }

  // Sum of all degrees (= 2m), the paper's vol(G).
  std::int64_t volume() const { return 2 * edge_count(); }

  NodeId min_degree() const { return min_degree_; }
  NodeId max_degree() const { return max_degree_; }

  // O(log deg) membership test.
  bool has_edge(NodeId u, NodeId v) const;

  // Process-unique identity of this topology; bumped for every construction.
  std::uint64_t version() const { return version_; }

 private:
  friend class TopologyBuilder;

  // Fills the CSR in place from a canonical edge list, with a fresh version:
  // O(n + m), no scratch. The arrays keep their capacity, so a builder slot
  // refilled every change-point stops allocating once it has grown.
  void fill(NodeId n, std::span<const Edge> edges);

  NodeId n_ = 0;
  std::vector<std::int64_t> offsets_;  // CSR offsets, size n+1
  std::vector<NodeId> adjacency_;      // CSR neighbor array, size 2m
  NodeId min_degree_ = 0;
  NodeId max_degree_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace rumor
