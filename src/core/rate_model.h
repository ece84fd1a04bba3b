// The jump engine's infection-rate state machine, with an incremental
// change-point tier.
//
// A RateModel owns everything r(v)-shaped for one trial of the jump engine:
// the β/deg edge weights (winv) and the block-decomposed rate table
// (stats/block_rates.h), into whose entry array every r(v) is written in
// place. It exposes the three operations the engine needs — rebuild at a
// change-point, O(1)-per-neighbour updates when a node is informed, and
// sampling — and adds the *delta path*:
// when a dynamic family reports its change-point as a small edge delta
// (DynamicNetwork::last_delta), the model updates only the entries the delta
// can affect instead of re-deriving all n rates.
//
// The delta path is bit-identical to a full rebuild by construction:
//
//  * every r(v) the model ever writes — full gather, sparse rebuild, delta
//    refresh — comes from the ONE per-node kernel simd::crossing_rate
//    (support/simd.h), which lane-blocks over the node's full adjacency list
//    with informed-mask weights, so there is exactly one summation order to
//    agree on;
//  * a changed edge only affects winv of its two endpoints (β/deg is a pure
//    function of the new degree) and r(v) of the endpoints and their
//    current neighbours, so recomputing exactly that set through the kernel
//    reproduces the rebuild's values;
//  * every entry drifted by the incremental add()/clear() updates since the
//    last change-point is tracked in a dirty list and recomputed too, which
//    restores the exactly-resummed state a full rebuild would establish;
//  * BlockRates::resum_entries re-derives every touched block/superblock
//    sum and the total in resum_all()'s exact summation order.
//
// tests/test_rate_model.cpp diffs the two paths bit for bit at every
// change-point, across families and tile counts; the crossover constant below
// is measured, not guessed (see kDeltaCostFactor).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dynamic/dynamic_network.h"
#include "graph/graph.h"
#include "stats/block_rates.h"
#include "support/arena.h"
#include "support/bitset.h"
#include "support/contracts.h"
#include "support/simd.h"

namespace rumor {

// r(v) for an uninformed node v: the race of independent exponentials over
// its crossing edges. A thin adapter over the lane-blocked per-node
// kernel; every call site — rebuild gather, sparse rebuild, delta refresh —
// goes through here, which is the cornerstone of their bit-identity.
inline double crossing_rate(const CsrView& csr, const Bitset& informed,
                            std::span<const double> winv, bool do_push, double pull_scale,
                            NodeId v) {
  const std::span<const NodeId> around = csr.neighbors(v);
  return simd::crossing_rate(around.data(), around.size(), informed.words().data(), winv.data(),
                             do_push ? 1.0 : 0.0,
                             pull_scale * winv[static_cast<std::size_t>(v)]);
}

class RateModel {
 public:
  // Nodes per tile of a parallel rebuild; tiles decompose the O(n) phases
  // (winv recompute, gather, table sums) into independent index ranges.
  static constexpr NodeId kRebuildTile = 8192;

  // Crossover between the two change-point paths: the delta path is taken
  // only while candidates·factor < n, so step-sized churn falls back to the
  // rebuild (where bench/bench_delta_rates.cpp shows the delta path up to
  // 170x slower). That bench (Release, n = 2^17, mean degree 8) measures the
  // rebuild at ~5-8 ns/node and the delta path at ~20-100 ns per candidate
  // entry, worst when deltas are small and block resums and cache misses are
  // unshared. The factor was set from a worst ratio of ~30x; on a 4-vCPU x86
  // VM the bench now reads ~60x and prints the factor beside it, so near that
  // worst case the delta path can be taken where a rebuild is cheaper.
  static constexpr std::int64_t kDeltaCostFactor = 32;

  // Change-point path choice. `automatic` is the production setting; the two
  // forced policies exist for the cross-path identity tests and for bench
  // ablations.
  enum class DeltaPolicy { automatic, always, never };

  struct Config {
    double beta = 1.0;        // clock rate scaled by (1 - failure probability)
    bool do_push = true;      // protocol pushes across crossing edges
    double pull_scale = 1.0;  // 1.0 when the protocol pulls, else 0.0
    // Track the dirty set needed by the delta path. Engines enable this only
    // when the family reports deltas, so non-delta scenarios pay nothing new
    // on the inform hot path.
    bool track_dirty = false;
    DeltaPolicy policy = DeltaPolicy::automatic;
  };

  // Re-carves the O(n) buffers for a trial. Spans come from the caller's
  // arena (invalidated by its next reset); the vectors and the rate table
  // reuse their capacity across trials, so steady-state allocation is zero.
  void begin_trial(Arena& arena, const Bitset& informed, NodeId n, const Config& config) {
    n_ = n;
    informed_ = &informed;
    config_ = config;
    const std::size_t nsz = static_cast<std::size_t>(n);
    winv_ = arena.make_span<double>(nsz);
    dirty_mark_ = arena.make_span<std::uint8_t>(config.track_dirty ? nsz : 0);
    std::fill(dirty_mark_.begin(), dirty_mark_.end(), std::uint8_t{0});
    touch_mark_ = arena.make_span<std::uint8_t>(nsz);
    std::fill(touch_mark_.begin(), touch_mark_.end(), std::uint8_t{0});
    touched_.clear();
    dirty_.clear();
    dirty_live_ = config.track_dirty;
    delta_updates_ = 0;
    full_rebuilds_ = 0;
  }

  const BlockRates& rates() const { return rates_; }
  double total() const { return rates_.total(); }
  std::size_t sample(double target) const { return rates_.sample(target); }
  std::span<const double> winv() const { return winv_; }
  const CsrView& csr() const { return csr_; }

  // Telemetry for tests and benches: how often each change-point path ran.
  std::int64_t delta_updates() const { return delta_updates_; }
  std::int64_t full_rebuilds() const { return full_rebuilds_; }

  // Change-point entry: take the delta path when the family reported one and
  // the heuristic says it is cheaper, else run the full (possibly tiled)
  // rebuild. `parallel_for(tasks, fn)` must invoke fn for every task index,
  // in any order, on any threads. Both paths leave the model in the same
  // bit-exact state. Returns true when the delta path ran.
  template <typename ParallelFor>
  bool on_change(const CsrView& csr, const std::optional<TopologyDelta>& delta,
                 std::int64_t informed_count, ParallelFor&& parallel_for) {
    const bool took_delta = delta.has_value() && dirty_live_ &&
                            config_.policy != DeltaPolicy::never &&
                            (config_.policy == DeltaPolicy::always || delta_cheaper(csr, *delta));
    if (took_delta) {
      apply_delta(csr, *delta);
    } else {
      rebuild(csr, informed_count, parallel_for);
    }
    // Adaptive tracking: when this change-point's delta was so large the
    // delta path could never win (≥2 candidates per changed edge already
    // clears the cost bar), the family is in step-sized-churn territory and
    // the next interval's dirty marks would be pure inform()-path overhead —
    // stop taking them, which forces (the equally-exact) rebuild next time.
    // Delta sizes are near-stationary for every registered family, so this
    // costs at most one suboptimal path choice after a regime shift. Path
    // choice never changes any value: both paths are bit-identical.
    dirty_live_ = config_.track_dirty && config_.policy != DeltaPolicy::never &&
                  (config_.policy == DeltaPolicy::always || !delta.has_value() ||
                   2 * static_cast<std::int64_t>(delta->removed.size() + delta->added.size()) *
                           kDeltaCostFactor <
                       n_);
    return took_delta;
  }

  // Full rebuild of winv and every rate at a change-point: O(n) tiled phases
  // plus a gather sized to whichever side of the cut holds less volume, both
  // writing straight into the rate table, then one tiled resum. When
  // the informed set is small, the *sparse* gather walks it once to collect
  // the uninformed nodes it touches (O(informed volume)), then runs the
  // per-node kernel on exactly those — same kernel, same bits as the full
  // gather, but the kernel phase parallelizes over the touched list instead
  // of serializing over the informed walk.
  template <typename ParallelFor>
  void rebuild(const CsrView& csr, std::int64_t informed_count, ParallelFor&& parallel_for) {
    csr_ = csr;
    ++full_rebuilds_;
    const NodeId n = n_;
    const Bitset& informed = *informed_;
    const bool do_push = config_.do_push;
    const double pull_scale = config_.pull_scale;
    const auto nsz = static_cast<std::size_t>(n);
    const std::int64_t tiles = (n + kRebuildTile - 1) / kRebuildTile;
    const bool sparse = informed_count * 2 <= n;
    rates_.resize(nsz);
    const std::span<double> rate = rates_.entries();
    parallel_for(tiles, [&](std::int64_t tile) {
      const std::size_t begin = static_cast<std::size_t>(tile) * kRebuildTile;
      const std::size_t end = std::min(begin + kRebuildTile, nsz);
      simd::fill_winv(csr.offsets, begin, end, config_.beta, winv_.data());
      if (sparse) {
        // The sparse gather only writes the touched entries; the rest of the
        // table must read 0. The full gather overwrites every entry.
        std::fill(rate.begin() + static_cast<std::ptrdiff_t>(begin),
                  rate.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
      }
    });
    if (sparse) {
      touched_.clear();
      const std::span<const std::uint64_t> words = informed.words();
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        std::uint64_t bits = words[wi];
        while (bits != 0) {
          const auto u =
              static_cast<NodeId>(wi * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
          bits &= bits - 1;
          for (NodeId w : csr.neighbors(u)) {
            const auto ww = static_cast<std::size_t>(w);
            if (informed.test(ww) || touch_mark_[ww] != 0) continue;
            touch_mark_[ww] = 1;
            touched_.push_back(w);
          }
        }
      }
      const std::int64_t touched_tiles =
          (static_cast<std::int64_t>(touched_.size()) + kRebuildTile - 1) / kRebuildTile;
      parallel_for(touched_tiles, [&](std::int64_t tile) {
        const std::size_t begin = static_cast<std::size_t>(tile) * kRebuildTile;
        const std::size_t end = std::min(begin + kRebuildTile, touched_.size());
        for (std::size_t k = begin; k < end; ++k) {
          const NodeId v = touched_[k];
          rate[static_cast<std::size_t>(v)] =
              crossing_rate(csr, informed, winv_, do_push, pull_scale, v);
        }
      });
      for (NodeId v : touched_) touch_mark_[static_cast<std::size_t>(v)] = 0;
    } else {
      parallel_for(tiles, [&](std::int64_t tile) {
        const NodeId begin = static_cast<NodeId>(tile * kRebuildTile);
        const NodeId end = static_cast<NodeId>(
            std::min<std::int64_t>(static_cast<std::int64_t>(begin) + kRebuildTile, n));
        for (NodeId u = begin; u < end; ++u) {
          const auto uu = static_cast<std::size_t>(u);
          rate[uu] = informed.test(uu)
                         ? 0.0
                         : crossing_rate(csr, informed, winv_, do_push, pull_scale, u);
        }
      });
    }
    rates_.resum_all(parallel_for);
    clear_dirty();
  }

  // A node became informed: zero its own rate and bump each uninformed
  // neighbour by its crossing-edge weight, O(deg) with O(1) table updates.
  // The caller must have set the informed bit already.
  void inform(NodeId v) {
    DG_ASSERT(informed_->test(static_cast<std::size_t>(v)), "inform() before setting the bit");
    rates_.clear(static_cast<std::size_t>(v));
    if (dirty_live_) mark_dirty(v);
    const double push_w = config_.do_push ? winv_[static_cast<std::size_t>(v)] : 0.0;
    const std::span<const NodeId> around = csr_.neighbors(v);
    // The neighbour updates hit ~3 random megabyte-scale arrays each; issuing
    // all the prefetches first overlaps those misses instead of serializing
    // them through the update loop.
    for (NodeId w : around) {
      rates_.prefetch(static_cast<std::size_t>(w));
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(&winv_[static_cast<std::size_t>(w)]);
#endif
    }
    for (NodeId w : around) {
      if (informed_->test(static_cast<std::size_t>(w))) continue;
      rates_.add(static_cast<std::size_t>(w),
                 push_w + config_.pull_scale * winv_[static_cast<std::size_t>(w)]);
      if (dirty_live_) mark_dirty(w);
    }
  }

 private:
  bool delta_cheaper(const CsrView& csr, const TopologyDelta& delta) const {
    // Candidate bound: both endpoints of every changed edge plus all their
    // current neighbours, plus the dirty entries. Degrees come from the new
    // snapshot; duplicates make this an overestimate, which only ever falls
    // back to the (always-correct) rebuild too early.
    std::int64_t candidates = static_cast<std::int64_t>(dirty_.size());
    for (std::span<const Edge> part : {delta.removed, delta.added}) {
      for (const Edge& e : part) {
        candidates += 2 + csr.degree(e.u) + csr.degree(e.v);
      }
      if (candidates * kDeltaCostFactor >= n_) return false;  // early out on huge deltas
    }
    return candidates * kDeltaCostFactor < n_;
  }

  void mark_dirty(NodeId v) {
    auto& mark = dirty_mark_[static_cast<std::size_t>(v)];
    if (mark == 0) {
      mark = 1;
      dirty_.push_back(v);
    }
  }

  void clear_dirty() {
    for (NodeId v : dirty_) dirty_mark_[static_cast<std::size_t>(v)] = 0;
    dirty_.clear();
  }

  // The delta path: recompute exactly the entries the delta or the interval's
  // incremental updates may have changed, in place and in ascending index
  // order, and let resum_entries re-derive the sums. O(Σ_endpoints deg +
  // |dirty| + Σ_candidates deg + n/4096) — independent of n except for the
  // total resum.
  void apply_delta(const CsrView& csr, const TopologyDelta& delta) {
    ++delta_updates_;
    const Bitset& informed = *informed_;

    // Endpoints of changed edges, deduplicated: their degree changed, so
    // their winv must be refreshed before any rate is recomputed.
    endpoints_.clear();
    for (std::span<const Edge> part : {delta.removed, delta.added}) {
      for (const Edge& e : part) {
        endpoints_.push_back(e.u);
        endpoints_.push_back(e.v);
      }
    }
    std::sort(endpoints_.begin(), endpoints_.end());
    endpoints_.erase(std::unique(endpoints_.begin(), endpoints_.end()), endpoints_.end());
    for (NodeId u : endpoints_) {
      const NodeId deg = csr.degree(u);
      winv_[static_cast<std::size_t>(u)] =
          deg > 0 ? config_.beta / static_cast<double>(deg) : 0.0;
    }

    // Candidates: endpoints, their current neighbours (an endpoint's changed
    // winv feeds every incident crossing edge), and the interval's dirty
    // entries. A removed edge's far side is itself an endpoint, so walking
    // the *new* adjacency covers every affected node.
    candidates_.clear();
    candidates_.insert(candidates_.end(), dirty_.begin(), dirty_.end());
    for (NodeId u : endpoints_) {
      candidates_.push_back(u);
      const std::span<const NodeId> around = csr.neighbors(u);
      candidates_.insert(candidates_.end(), around.begin(), around.end());
    }
    std::sort(candidates_.begin(), candidates_.end());
    candidates_.erase(std::unique(candidates_.begin(), candidates_.end()), candidates_.end());

    const std::span<double> rate = rates_.entries();
    for (NodeId v : candidates_) {
      const auto vv = static_cast<std::size_t>(v);
      rate[vv] = informed.test(vv) ? 0.0
                                   : crossing_rate(csr, informed, winv_, config_.do_push,
                                                   config_.pull_scale, v);
    }
    rates_.resum_entries(std::span<const NodeId>(candidates_));
    clear_dirty();
    csr_ = csr;
  }

  NodeId n_ = 0;
  CsrView csr_;
  const Bitset* informed_ = nullptr;
  Config config_;
  BlockRates rates_;
  std::span<double> winv_;              // β/deg per node, arena-backed
  std::span<std::uint8_t> dirty_mark_;  // 1 = already in dirty_, arena-backed
  std::span<std::uint8_t> touch_mark_;  // 1 = already in touched_, arena-backed
  std::vector<NodeId> touched_;         // sparse-rebuild targets (cleared after use)
  std::vector<NodeId> dirty_;           // entries drifted since the last (re)build
  bool dirty_live_ = false;             // dirty set complete since the last change-point
  std::vector<NodeId> endpoints_;       // delta-path scratch
  std::vector<NodeId> candidates_;      // delta-path scratch
  std::int64_t delta_updates_ = 0;
  std::int64_t full_rebuilds_ = 0;
};

}  // namespace rumor
