#include "graph/topology.h"

#include <algorithm>
#include <utility>

#include "support/contracts.h"

namespace rumor {

namespace {

// Two-pointer symmetric difference of two normalized, lexicographically
// sorted, duplicate-free edge lists: edges only in `before` land in
// `removed`, edges only in `after` land in `added` (both cleared first, both
// emitted sorted). O(|before| + |after|).
void edge_symmetric_difference(const std::vector<Edge>& before, const std::vector<Edge>& after,
                               std::vector<Edge>& removed, std::vector<Edge>& added) {
  removed.clear();
  added.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < before.size() || j < after.size()) {
    if (j == after.size() || (i < before.size() && before[i] < after[j])) {
      removed.push_back(before[i++]);
    } else if (i == before.size() || after[j] < before[i]) {
      added.push_back(after[j++]);
    } else {
      ++i;
      ++j;
    }
  }
}

}  // namespace

TopologyBuilder::TopologyBuilder(NodeId n) : n_(n) {
  DG_REQUIRE(n >= 0, "node count must be non-negative");
}

const Graph& TopologyBuilder::current() const {
  DG_REQUIRE(has_snapshot_, "TopologyBuilder has no snapshot yet");
  return graphs_[live_];
}

const std::vector<Edge>& TopologyBuilder::current_edges() const {
  DG_REQUIRE(has_snapshot_, "TopologyBuilder has no snapshot yet");
  return edges_[live_];
}

const Graph& TopologyBuilder::publish(DeltaSource source) {
  // The slot being overwritten is the snapshot from two rebuilds ago; nobody
  // may hold a reference to it any more (graph_at's one-step validity
  // contract), so it is refilled in place from the edges just written into
  // its list, keeping its CSR capacity.
  const int next = 1 - live_;
  graphs_[next].fill(n_, edges_[next]);
  live_ = next;
  delta_source_ = has_snapshot_ ? source : DeltaSource::none;
  has_snapshot_ = true;
  return graphs_[live_];
}

std::optional<TopologyDelta> TopologyBuilder::last_delta() const {
  if (delta_source_ == DeltaSource::none) return std::nullopt;
  if (delta_source_ == DeltaSource::slots) {
    edge_symmetric_difference(edges_[1 - live_], edges_[live_], diff_removed_, diff_added_);
    delta_removed_ = diff_removed_;
    delta_added_ = diff_added_;
    delta_source_ = DeltaSource::spans;
  }
  return TopologyDelta{delta_removed_, delta_added_};
}

const Graph& TopologyBuilder::rebuild(std::vector<Edge> edges, bool dedupe) {
  detail::canonicalize_edges(n_, edges, dedupe, scratch_tmp_, scratch_count_);
  edges_[1 - live_] = std::move(edges);
  return publish(DeltaSource::slots);
}

const Graph& TopologyBuilder::rebuild_presorted(std::vector<Edge> edges) {
#ifndef NDEBUG
  for (std::size_t i = 0; i < edges.size(); ++i) {
    DG_ASSERT(edges[i].u >= 0 && edges[i].u < edges[i].v && edges[i].v < n_,
              "presorted edges must be normalized and in range");
    DG_ASSERT(i == 0 || edges[i - 1] < edges[i], "presorted edges must be strictly increasing");
  }
#endif
  edges_[1 - live_] = std::move(edges);
  return publish(DeltaSource::slots);
}

const Graph& TopologyBuilder::apply_delta_sorted(std::span<const Edge> removed,
                                                 std::span<const Edge> added) {
  // O(|delta|), so it runs in every build type. It precedes the merge, which
  // trusts the order: an edge out of order or unnormalized would otherwise
  // publish a snapshot whose edge list and CSR disagree.
  for (std::span<const Edge> delta : {removed, added}) {
    for (std::size_t i = 0; i < delta.size(); ++i) {
      DG_REQUIRE(delta[i].u >= 0 && delta[i].u < delta[i].v && delta[i].v < n_,
                 "sorted delta edges must be normalized and in range");
      DG_REQUIRE(i == 0 || delta[i - 1] < delta[i],
                 "sorted delta edges must be strictly increasing");
    }
  }
  return merge_delta(removed, added);
}

const Graph& TopologyBuilder::merge_delta(std::span<const Edge> removed,
                                          std::span<const Edge> added) {
  DG_REQUIRE(has_snapshot_, "apply_delta_sorted needs a previous snapshot");
  // The merge overwrites the previous snapshot's slot, so until it publishes
  // there is no delta to report; on success it is the caller's spans.
  delta_source_ = DeltaSource::none;
  delta_removed_ = removed;
  delta_added_ = added;
  const std::vector<Edge>& old = edges_[live_];
  // The merge writes straight into the other slot's edge list, which holds
  // the snapshot from two rebuilds ago and so already has about m entries of
  // capacity; publish() then refills that slot's Graph in place.
  std::vector<Edge>& merged = edges_[1 - live_];

  // Parallel path: cut the old edge list into fixed-width tiles and weave
  // each tile independently. All three lists are strictly increasing, so a
  // binary search on the tile's boundary edge old[t·W] splits the deltas into
  // per-tile subranges, and — when the delta is valid — the tile's output
  // lands at the exact offset t·W - r_lo(t) + a_lo(t) with exactly
  // (hi - lo) - (r_hi - r_lo) + (a_hi - a_lo) entries. The result is the same
  // byte sequence as the serial weave; only the write schedule differs.
  //
  // Validity cannot throw from pool threads (DG_REQUIRE must fire on the
  // caller's thread), so each tile records a violation flag instead — a
  // bounds-overrun, an addition already present, a removal not present, or a
  // subrange left unconsumed — and any flag drops the whole merge back to the
  // serial weave below, which raises the precise error.
  const auto m = static_cast<std::int64_t>(old.size());
  const std::int64_t tiles = (m + kMergeTileEdges - 1) / kMergeTileEdges;
  if (pool_ != nullptr && m >= kParallelMergeMinEdges && tiles > 1 &&
      removed.size() <= old.size()) {
    merged.resize(old.size() - removed.size() + added.size());
    merge_status_.assign(static_cast<std::size_t>(tiles), 0);
    pool_->run(tiles, [&](std::int64_t t) {
      const std::int64_t lo = t * kMergeTileEdges;
      const std::int64_t hi = std::min(m, lo + kMergeTileEdges);
      auto split = [&](std::span<const Edge> delta, std::int64_t boundary) {
        if (boundary == 0) return std::int64_t{0};
        if (boundary >= m) return static_cast<std::int64_t>(delta.size());
        return static_cast<std::int64_t>(
            std::lower_bound(delta.begin(), delta.end(), old[static_cast<std::size_t>(boundary)]) -
            delta.begin());
      };
      const std::int64_t r_hi = split(removed, hi);
      const std::int64_t a_hi = split(added, hi);
      std::int64_t r = split(removed, lo);
      std::int64_t a = split(added, lo);
      std::int64_t pos = lo - r + a;
      const std::int64_t pos_end = hi - r_hi + a_hi;
      bool bad = false;
      for (std::int64_t i = lo; i < hi && !bad; ++i) {
        const Edge& e = old[static_cast<std::size_t>(i)];
        while (a < a_hi && added[static_cast<std::size_t>(a)] < e) {
          if (pos >= pos_end) {
            bad = true;
            break;
          }
          merged[static_cast<std::size_t>(pos++)] = added[static_cast<std::size_t>(a++)];
        }
        if (bad) break;
        if (a < a_hi && added[static_cast<std::size_t>(a)] == e) {
          bad = true;  // added edge already present
          break;
        }
        if (r < r_hi && removed[static_cast<std::size_t>(r)] == e) {
          ++r;
          continue;
        }
        if (r < r_hi && removed[static_cast<std::size_t>(r)] < e) {
          bad = true;  // removed edge not present
          break;
        }
        if (pos >= pos_end) {
          bad = true;
          break;
        }
        merged[static_cast<std::size_t>(pos++)] = e;
      }
      while (!bad && a < a_hi) {
        if (pos >= pos_end) {
          bad = true;
          break;
        }
        merged[static_cast<std::size_t>(pos++)] = added[static_cast<std::size_t>(a++)];
      }
      if (bad || r != r_hi || a != a_hi || pos != pos_end) {
        merge_status_[static_cast<std::size_t>(t)] = 1;
      }
    });
    bool any_bad = false;
    for (const std::uint8_t flag : merge_status_) any_bad = any_bad || flag != 0;
    if (!any_bad) return publish(DeltaSource::spans);
  }

  merged.clear();
  merged.reserve(old.size() + added.size());

  // Single pass: copy old edges, dropping removals and weaving in additions.
  // A violation empties the half-written slot before the error propagates,
  // so no slot is left pairing one edge list with another snapshot's CSR.
  try {
    std::size_t r = 0;
    std::size_t a = 0;
    for (const Edge& e : old) {
      while (a < added.size() && added[a] < e) merged.push_back(added[a++]);
      DG_REQUIRE(a >= added.size() || !(added[a] == e), "added edge already present");
      if (r < removed.size() && removed[r] == e) {
        ++r;
        continue;
      }
      merged.push_back(e);
    }
    while (a < added.size()) merged.push_back(added[a++]);
    DG_REQUIRE(r == removed.size(), "removed edge not present in the current snapshot");
  } catch (...) {
    merged.clear();
    graphs_[1 - live_] = Graph();
    throw;
  }
  return publish(DeltaSource::spans);
}

}  // namespace rumor
