// CSR topology snapshots for dynamic networks: build-and-rebuild without the
// per-change-point allocation and sorting cost of a fresh Graph.
//
// Every dynamic family in src/dynamic exposes a *sequence* of immutable Graph
// snapshots. A TopologyBuilder owns that sequence's construction: it keeps the
// radix-sort scratch buffers alive across change-points, double-buffers the
// snapshots (the previous Graph stays valid until the next rebuild, matching
// the DynamicNetwork::graph_at contract), rebuilds the evicted slot in place
// (a delta merge writes straight into that slot's edge buffer, so a snapshot
// sequence holds exactly two edge lists and two CSRs), and offers three entry
// points on a cost gradient:
//
//  * rebuild(edges)            — full rebuild from an arbitrary edge list,
//                                O(n + m) counting sorts, no comparisons;
//  * rebuild_presorted(edges)  — the caller guarantees normalized (u < v),
//                                lexicographically sorted, duplicate-free
//                                edges (e.g. a filtered subset of another
//                                graph's edges()); skips sorting entirely;
//  * apply_delta_sorted(rem, add) — merge the previous snapshot's sorted
//                                edge list with small sorted removal/addition
//                                deltas in O(m + |delta|).
//
// Each call returns a reference to a fresh immutable Graph with a new
// version(), so engines' version-compare change detection keeps working.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace rumor {

// Two-pointer symmetric difference of two normalized, lexicographically
// sorted, duplicate-free edge lists: edges only in `before` land in
// `removed`, edges only in `after` land in `added` (both cleared first, both
// emitted sorted). This is how families that rebuild from scratch
// (edge_sampling, mobile_geometric) derive the TopologyDelta they report —
// one definition so the delta contract and TopologyBuilder's edge ordering
// cannot drift apart. O(|before| + |after|).
void edge_symmetric_difference(const std::vector<Edge>& before, const std::vector<Edge>& after,
                               std::vector<Edge>& removed, std::vector<Edge>& added);

class TopologyBuilder {
 public:
  // Old edges per merge tile, and the snapshot size below which the delta
  // merge stays serial (tiling overhead beats the win on small graphs). Both
  // fixed so the tiling never depends on the worker count.
  static constexpr std::int64_t kMergeTileEdges = std::int64_t{1} << 16;
  static constexpr std::int64_t kParallelMergeMinEdges = std::int64_t{1} << 17;

  // Parallel-for with the ParallelEvolution::run signature: invokes fn(task)
  // once per task in [0, tasks), on any threads. The graph layer cannot see
  // dynamic/'s ParallelEvolution interface, so a family forwards its lent
  // pool through this std::function instead (see
  // EdgeMarkovianNetwork::set_parallel_evolution). Lending or revoking it
  // never changes a snapshot: the parallel merge writes each tile to a
  // precomputed disjoint output range of the same weave the serial path
  // produces.
  using ParallelFor = std::function<void(std::int64_t, const std::function<void(std::int64_t)>&)>;

  explicit TopologyBuilder(NodeId n);

  NodeId node_count() const { return n_; }
  bool has_snapshot() const { return has_snapshot_; }

  // Lends (or with {} revokes) a parallel-for for the O(m) delta merge.
  void set_parallel_for(ParallelFor parallel_for) { parallel_for_ = std::move(parallel_for); }

  // The latest snapshot; requires at least one rebuild first.
  const Graph& current() const;

  // Full rebuild from an unnormalized edge list. With `dedupe` set, duplicate
  // edges (after normalization) collapse to one instead of being rejected —
  // for families whose generators can emit the same contact twice.
  const Graph& rebuild(std::vector<Edge> edges, bool dedupe = false);

  // Rebuild from edges that are already normalized (u < v), sorted
  // lexicographically, and duplicate-free. O(n + m) with no sorting at all.
  const Graph& rebuild_presorted(std::vector<Edge> edges);

  // Delta rebuild: remove `removed` from and then insert `added` into the
  // previous snapshot's edge set. Both are caller-retained buffers that are
  // already normalized (u < v), lexicographically sorted, and duplicate-free
  // — the exact form delta-reporting families expose through
  // DynamicNetwork::last_delta() — so one pair of vectors serves both this
  // builder and the family's delta report. Every removed edge must be
  // present and no added edge may already exist. O(m + |delta|): one linear
  // merge and the CSR fill. A delta that is unnormalized, out of range or not
  // strictly increasing is rejected before the merge starts, leaving both
  // snapshots as they were. A delta that fails membership leaves current() as
  // it was but empties the previous snapshot, whose slot the merge had
  // already begun to overwrite.
  const Graph& apply_delta_sorted(std::span<const Edge> removed, std::span<const Edge> added);

 private:
  // Rebuilds the non-live slot around the edges just written into it, with a
  // fresh version, and makes it current().
  const Graph& publish();
  const Graph& merge_delta(std::span<const Edge> removed, std::span<const Edge> added);

  NodeId n_ = 0;
  bool has_snapshot_ = false;
  // Double buffer: `graphs_[live_]` is current(); the other slot holds the
  // previous snapshot (kept alive for borrowed references) until the next
  // rebuild overwrites it in place, vector capacity and all.
  Graph graphs_[2];
  int live_ = 0;
  std::vector<Edge> scratch_tmp_;
  std::vector<std::int64_t> scratch_count_;
  ParallelFor parallel_for_;
  std::vector<std::uint8_t> merge_status_;  // per-tile delta-violation flags
};

}  // namespace rumor
