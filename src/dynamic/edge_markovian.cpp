#include "dynamic/edge_markovian.h"

#include <algorithm>
#include <cmath>

#include "support/contracts.h"

namespace rumor {

namespace {

// Cumulative pair count of rows before u: S(u) = u·(2n-u-1)/2. Row u holds
// the n-1-u pairs (u, u+1), ..., (u, n-1) in the lexicographic linearization
// of all unordered pairs.
std::int64_t row_start(NodeId n, std::int64_t u) {
  return u * (2 * static_cast<std::int64_t>(n) - u - 1) / 2;  // u·(2n-u-1) is even
}

// Maps a linear pair index in [0, n(n-1)/2) to its lexicographic (u, v) pair
// (u < v). Inverting S(u) with the quadratic formula is O(1); the
// double-precision root is within one row of the answer for every n the
// registry admits ((2n-1)² < 2^53), and the integer fix-up loops make the
// result exact regardless.
Edge nth_pair(NodeId n, std::int64_t idx) {
  const double b = 2.0 * static_cast<double>(n) - 1.0;
  const double root = std::floor((b - std::sqrt(b * b - 8.0 * static_cast<double>(idx))) / 2.0);
  std::int64_t u = std::clamp<std::int64_t>(static_cast<std::int64_t>(root), 0, n - 2);
  while (u > 0 && row_start(n, u) > idx) --u;
  while (u + 1 <= n - 2 && row_start(n, u + 1) <= idx) ++u;
  const std::int64_t v = u + 1 + (idx - row_start(n, u));
  return {static_cast<NodeId>(u), static_cast<NodeId>(v)};
}

// Incremental pair-index decoder for ascending queries. nth_pair's closed
// form costs a sqrt and two fix-up loops per call; consecutive birth indices
// within a tile almost always land in the same row (row u holds n-1-u
// pairs), so seeding once and rolling row boundaries forward replaces the
// sqrt with a rarely-taken while loop. Produces exactly nth_pair's result.
class PairCursor {
 public:
  explicit PairCursor(NodeId n) : n_(n) {}

  Edge at(std::int64_t idx) {
    if (u_ < 0) {
      const Edge e = nth_pair(n_, idx);
      u_ = e.u;
      begin_ = row_start(n_, u_);
      end_ = begin_ + (n_ - 1 - u_);
      return e;
    }
    while (idx >= end_) {
      ++u_;
      begin_ = end_;
      end_ += n_ - 1 - u_;
    }
    return {static_cast<NodeId>(u_), static_cast<NodeId>(u_ + 1 + (idx - begin_))};
  }

 private:
  NodeId n_;
  std::int64_t u_ = -1;
  std::int64_t begin_ = 0;
  std::int64_t end_ = 0;  // row_start(u_), row_start(u_ + 1)
};

// Geometric-skip enumeration of Bernoulli(p) successes over the pair-index
// range [lo, hi), for p in (0, 1): every success index is visited in
// ascending order with one uniform draw per success (plus the final
// overshoot draw). The `!(gap < remaining)` guard also absorbs the
// degenerate skips of denormal p, where log1p(-p) underflows toward -0 and
// the quotient overflows any integer type.
template <typename OnSuccess>
void geometric_skip(Rng& rng, double p, std::int64_t lo, std::int64_t hi, OnSuccess&& fn) {
  const double log1m = std::log1p(-p);
  std::int64_t idx = lo - 1;
  for (;;) {
    const double gap = std::floor(std::log(rng.uniform_positive()) / log1m);
    if (!(gap < static_cast<double>(hi - idx - 1))) break;
    idx += 1 + static_cast<std::int64_t>(gap);
    fn(idx);
  }
}

}  // namespace

EdgeMarkovianNetwork::EdgeMarkovianNetwork(NodeId n, double p, double q, std::uint64_t seed,
                                           bool start_empty)
    : EvolvingNetwork(n), n_(n), p_(p), q_(q), seed_(seed) {
  DG_REQUIRE(n >= 2, "need at least two nodes");
  DG_REQUIRE(p > 0.0 && p <= 1.0, "birth probability must lie in (0,1]");
  DG_REQUIRE(q >= 0.0 && q <= 1.0, "death probability must lie in [0,1]");
  const std::int64_t total = static_cast<std::int64_t>(n) * (n - 1) / 2;
  std::vector<Edge> edges;
  if (!start_empty) {
    // Stationary density: each pair is an edge with probability p/(p+q).
    // q = 0 makes that density 1 — the complete graph.
    const double density = p / (p + q);
    if (density >= 1.0) {
      edges.reserve(static_cast<std::size_t>(total));
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
      }
    } else {
      // Tiled exactly like evolve() (stream counter 0), so the start is part
      // of the same portable sequence contract.
      const std::int64_t tiles = (total + kPairsPerTile - 1) / kPairsPerTile;
      for (std::int64_t tile = 0; tile < tiles; ++tile) {
        Rng rng(counter_stream_seed(seed_, 0, static_cast<std::uint64_t>(tile)));
        const std::int64_t lo = tile * kPairsPerTile;
        const std::int64_t hi = std::min(lo + kPairsPerTile, total);
        PairCursor cursor(n_);
        geometric_skip(rng, density, lo, hi,
                       [&](std::int64_t idx) { edges.push_back(cursor.at(idx)); });
      }
    }
  }
  topo_.rebuild_presorted(std::move(edges));
}

void EdgeMarkovianNetwork::advance(std::uint64_t step) {
  const std::vector<Edge>& current = topo_.current_edges();  // pair-index sorted
  const std::int64_t total = static_cast<std::int64_t>(n_) * (n_ - 1) / 2;
  const std::int64_t tiles = std::max<std::int64_t>(1, (total + kPairsPerTile - 1) / kPairsPerTile);
  tile_removed_.resize(static_cast<std::size_t>(tiles));
  tile_added_.resize(static_cast<std::size_t>(tiles));

  // Tile t's edges start at the first edge not below its boundary pair
  // nth_pair(t·W): pair-index order is (u, v)-lexicographic order, so that is
  // a lower bound in the sorted edge list. Boundaries ascend, so each search
  // gallops forward from the previous one — O(tiles·log(m/tiles)) probes, and
  // no pass over the snapshot.
  tile_edge_start_.resize(static_cast<std::size_t>(tiles) + 1);
  tile_edge_start_[0] = 0;
  auto found = current.begin();
  for (std::int64_t t = 1; t < tiles; ++t) {
    const Edge boundary = nth_pair(n_, t * kPairsPerTile);
    std::ptrdiff_t stride = 1;
    auto hi = found;
    while (current.end() - hi > stride && hi[stride] < boundary) {
      hi += stride;
      stride *= 2;
    }
    found =
        std::lower_bound(hi, current.end() - hi > stride ? hi + stride : current.end(), boundary);
    tile_edge_start_[static_cast<std::size_t>(t)] = found - current.begin();
  }
  tile_edge_start_[static_cast<std::size_t>(tiles)] = static_cast<std::int64_t>(current.size());

  // Each tile owns the disjoint pair-index range [tile·W, (tile+1)·W) and a
  // private counter-based RNG stream: deaths first — one Bernoulli(q) draw
  // per current edge of the range, in ascending pair-index order (none at
  // all when q = 0: frozen edges) — then births by Geometric(p) skipping
  // over the range with current edges passed over (their transition is
  // governed by the death step). Tile outputs land in tile-indexed slots, so
  // the step is a pure function of (seed, step, tiling) no matter which
  // threads run which tiles. p = 1 is the one special case: every pair
  // becomes an edge, overriding this step's deaths, with no draws at all —
  // the net delta is "add every previous non-edge".
  const bool full_birth = p_ >= 1.0;
  run_tiles(tiles, [&](std::int64_t tile) {
    std::vector<Edge>& removed = tile_removed_[static_cast<std::size_t>(tile)];
    std::vector<Edge>& added = tile_added_[static_cast<std::size_t>(tile)];
    removed.clear();
    added.clear();
    const std::int64_t lo = tile * kPairsPerTile;
    const std::int64_t hi = std::min(lo + kPairsPerTile, total);
    const auto begin = current.begin() + static_cast<std::ptrdiff_t>(
                                             tile_edge_start_[static_cast<std::size_t>(tile)]);
    const auto end = current.begin() + static_cast<std::ptrdiff_t>(
                                           tile_edge_start_[static_cast<std::size_t>(tile) + 1]);

    if (full_birth) {
      // Complete graph next step: add every non-edge of the range.
      auto it = begin;
      PairCursor cursor(n_);
      for (std::int64_t idx = lo; idx < hi; ++idx) {
        const Edge e = cursor.at(idx);
        if (it != end && *it == e) {
          ++it;
          continue;
        }
        added.push_back(e);
      }
      return;
    }

    Rng rng(counter_stream_seed(seed_, step, static_cast<std::uint64_t>(tile)));
    if (q_ > 0.0) {
      for (auto it = begin; it != end; ++it) {
        if (rng.flip(q_)) removed.push_back(*it);
      }
    }
    // Membership merge: both walks ascend in pair index, and pair index order
    // is (u, v)-lexicographic order, so the comparison needs no arithmetic.
    auto it = begin;
    PairCursor cursor(n_);
    geometric_skip(rng, p_, lo, hi, [&](std::int64_t idx) {
      const Edge e = cursor.at(idx);
      while (it != end && *it < e) ++it;
      if (it != end && *it == e) return;  // already an edge
      added.push_back(e);
    });
  });

  // Tile ranges ascend, and within a tile both outputs ascend, so plain
  // concatenation in tile order yields sorted, duplicate-free deltas.
  removed_.clear();
  added_.clear();
  for (std::int64_t tile = 0; tile < tiles; ++tile) {
    const auto& rem = tile_removed_[static_cast<std::size_t>(tile)];
    const auto& add = tile_added_[static_cast<std::size_t>(tile)];
    removed_.insert(removed_.end(), rem.begin(), rem.end());
    added_.insert(added_.end(), add.begin(), add.end());
  }
  topo_.apply_delta_sorted(removed_, added_);
}

}  // namespace rumor
