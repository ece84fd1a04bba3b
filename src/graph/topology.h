// CSR topology snapshots for dynamic networks: build-and-rebuild without the
// per-change-point allocation and sorting cost of a fresh Graph.
//
// Every dynamic family in src/dynamic exposes a *sequence* of immutable Graph
// snapshots. A TopologyBuilder owns that sequence's construction: it keeps the
// radix-sort scratch buffers alive across change-points, double-buffers the
// snapshots (the previous Graph stays valid until the next rebuild, matching
// the DynamicNetwork::graph_at contract), and rebuilds the evicted slot in
// place. It is the one holder of edge lists: each slot pairs a Graph with the
// sorted list it was filled from (a delta merge writes straight into that
// list), so a sequence holds exactly two edge lists and two CSRs. It offers
// three entry points on a cost gradient:
//
//  * rebuild(edges)            — full rebuild from an arbitrary edge list,
//                                canonicalized by the Graph constructor's
//                                own path (detail::canonicalize_edges):
//                                O(n + m) counting sorts, no comparisons;
//  * rebuild_presorted(edges)  — the caller guarantees normalized (u < v),
//                                lexicographically sorted, duplicate-free
//                                edges (e.g. a filtered subset of another
//                                graph's rows); skips sorting entirely;
//  * apply_delta_sorted(rem, add) — merge the previous snapshot's sorted
//                                edge list with small sorted removal/addition
//                                deltas in O(m + |delta|).
//
// Each call returns a reference to a fresh immutable Graph with a new
// version(), so engines' version-compare change detection keeps working, and
// last_delta() reports what that publish changed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "support/parallel_evolution.h"

namespace rumor {

// A change-point's topology delta: the edges that disappeared from and
// appeared in a snapshot relative to the one before it. Both spans are
// normalized (u < v), lexicographically sorted, duplicate-free, and disjoint.
struct TopologyDelta {
  std::span<const Edge> removed;
  std::span<const Edge> added;
};

class TopologyBuilder {
 public:
  // Old edges per merge tile, and the snapshot size below which the delta
  // merge stays serial (tiling overhead beats the win on small graphs). Both
  // fixed so the tiling never depends on the worker count.
  static constexpr std::int64_t kMergeTileEdges = std::int64_t{1} << 16;
  static constexpr std::int64_t kParallelMergeMinEdges = std::int64_t{1} << 17;

  explicit TopologyBuilder(NodeId n);

  NodeId node_count() const { return n_; }
  bool has_snapshot() const { return has_snapshot_; }

  // Lends (or with nullptr revokes) a pool for the O(m) delta merge. Lending
  // or revoking it never changes a snapshot: the tiled merge writes each tile
  // to a precomputed disjoint output range of the weave the serial path
  // produces. The pool must stay valid until revoked.
  void set_parallel_evolution(ParallelEvolution* pool) { pool_ = pool; }
  ParallelEvolution* parallel_evolution() const { return pool_; }

  // The latest snapshot; requires at least one rebuild first.
  const Graph& current() const;

  // The canonical edge list current() was filled from: current().edges()
  // without the copy. Valid until the next publish.
  const std::vector<Edge>& current_edges() const;

  // Full rebuild from an unnormalized edge list. With `dedupe` set, duplicate
  // edges (after normalization) collapse to one instead of being rejected —
  // for families whose generators can emit the same contact twice.
  const Graph& rebuild(std::vector<Edge> edges, bool dedupe = false);

  // Rebuild from edges that are already normalized (u < v), sorted
  // lexicographically, and duplicate-free. O(n + m) with no sorting at all.
  const Graph& rebuild_presorted(std::vector<Edge> edges);

  // Delta rebuild: remove `removed` from and then insert `added` into the
  // previous snapshot's edge set. Both are caller-retained buffers that are
  // already normalized (u < v), lexicographically sorted, and duplicate-free.
  // last_delta() hands these same spans back without a copy, so they must
  // stay valid until the next publish. Every removed edge must be present and
  // no added edge may already exist. O(m + |delta|): one linear merge and the
  // CSR fill. A delta that is unnormalized, out of range or not strictly
  // increasing is rejected before the merge starts, leaving both snapshots
  // as they were. A delta that fails membership leaves current() as it was
  // but empties the previous snapshot, whose slot the merge had already
  // begun to overwrite, and withdraws last_delta().
  const Graph& apply_delta_sorted(std::span<const Edge> removed, std::span<const Edge> added);

  // What the latest publish changed, valid until the next publish; nullopt
  // for the first snapshot and after a delta merge that failed membership. After
  // apply_delta_sorted these are the caller's spans. After a rebuild the
  // builder diffs its two live slots into buffers of its own on the first
  // request, so a caller that never asks never pays the O(m) diff, and no
  // rebuild call times it.
  std::optional<TopologyDelta> last_delta() const;

 private:
  // Where last_delta() finds the latest publish's delta.
  enum class DeltaSource : std::uint8_t { none, spans, slots };

  // Refills the non-live slot's Graph from the edges just written into its
  // list, with a fresh version, and makes it current().
  const Graph& publish(DeltaSource source);
  const Graph& merge_delta(std::span<const Edge> removed, std::span<const Edge> added);

  NodeId n_ = 0;
  bool has_snapshot_ = false;
  // Double buffer: `graphs_[live_]` is current(); the other slot holds the
  // previous snapshot (kept alive for borrowed references) until the next
  // rebuild overwrites it in place, vector capacity and all. `edges_[i]` is
  // the canonical list `graphs_[i]` was filled from.
  Graph graphs_[2];
  std::vector<Edge> edges_[2];
  int live_ = 0;
  std::vector<Edge> scratch_tmp_;
  std::vector<std::int64_t> scratch_count_;
  ParallelEvolution* pool_ = nullptr;
  std::vector<std::uint8_t> merge_status_;  // per-tile delta-violation flags
  // The latest publish's delta. A slots diff is taken lazily by the const
  // last_delta(), which then points the spans at the diff buffers.
  mutable DeltaSource delta_source_ = DeltaSource::none;
  mutable std::span<const Edge> delta_removed_;
  mutable std::span<const Edge> delta_added_;
  mutable std::vector<Edge> diff_removed_;
  mutable std::vector<Edge> diff_added_;
};

}  // namespace rumor
