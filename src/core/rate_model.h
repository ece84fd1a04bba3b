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
//  * the rate lives only on the cut. For an uninformed v the kernel adds,
//    per neighbour w in list order, m_w·(push·winv[w] + pull·winv[v]) with
//    m_w = 1 when w is informed and m_w = 0.0 otherwise; winv is finite, so
//    an uninformed w contributes 0.0·s = +0.0, and adding +0.0 leaves a
//    non-negative lane sum bitwise unchanged. r(v) therefore reads winv[w]
//    only of informed w, its own winv[v], and its own list;
//  * so a changed edge, which moves winv and the list of its two endpoints
//    only, can change r(v) just for (a) an uninformed endpoint (its list or
//    winv[v] moved) and (b) an uninformed neighbour of an informed endpoint
//    (that endpoint's winv moved). An informed endpoint's own entry holds
//    0.0 and stays so; an uninformed endpoint's winv feeds no neighbour's
//    rate. Recomputing exactly (a) and (b) through the kernel reproduces the
//    rebuild's values. A removed edge's far side is itself an endpoint, so
//    walking the new lists of the informed endpoints finds every (b);
//  * every entry drifted by the incremental add()/clear() updates since the
//    last change-point is tracked in a dirty list and recomputed too, which
//    restores the exactly-resummed state a full rebuild would establish;
//  * BlockRates::resum_entries re-derives every touched block/superblock
//    sum and the total in resum_all()'s exact summation order.
//
// tests/test_rate_model.cpp diffs the two paths bit for bit at every
// change-point, across families, tile counts, cut sizes and protocols; the
// crossover constant below is measured, not guessed (see kDeltaCostFactor).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
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

  // Crossover between the two change-point paths, both priced in adjacency
  // entries read (collect_candidates and rebuild_reads): the delta path is
  // taken only while its price·factor is below the rebuild's, so step-sized
  // churn falls back to the rebuild. bench/bench_delta_rates.cpp (Release,
  // n = 2^17, 4-vCPU x86 VM) prices and times both paths over mean degree
  // {8, 21} × informed {1, n/2, n − n/64} × churn q {1e-4 .. 0.5}. The delta
  // path reads 4-17 ns and the rebuild 4-10 ns per priced read; their ratio
  // runs 0.56-2.2 over the 30 rows (worst where a 2^17-node delta refreshes a
  // few dozen candidates at n − n/64 informed), so 3 covers the worst with
  // a margin. With the block resums left unpriced the ratio ran to 13 at
  // mean degree 8, where a 64-entry block outweighs a 9-read candidate.
  static constexpr std::int64_t kDeltaCostFactor = 3;

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
    delta_reads_ = 0;
  }

  const BlockRates& rates() const { return rates_; }
  double total() const { return rates_.total(); }
  std::size_t sample(double target) const { return rates_.sample(target); }
  std::span<const double> winv() const { return winv_; }
  const CsrView& csr() const { return csr_; }

  // Telemetry for tests and benches: how often each change-point path ran.
  std::int64_t delta_updates() const { return delta_updates_; }
  std::int64_t full_rebuilds() const { return full_rebuilds_; }
  // The summed price, in adjacency reads, of the delta updates that ran.
  std::int64_t delta_reads() const { return delta_reads_; }

  // Change-point entry: take the delta path when the family reported one and
  // its candidates cost fewer adjacency reads than a rebuild, else run the
  // full (possibly tiled) rebuild. `parallel_for(tasks, fn)` must invoke fn
  // for every task index, in any order, on any threads. Both paths leave the
  // model in the same bit-exact state. Returns true when the delta path ran.
  template <typename ParallelFor>
  bool on_change(const CsrView& csr, const std::optional<TopologyDelta>& delta,
                 std::int64_t informed_count, ParallelFor&& parallel_for) {
    const std::int64_t rebuild_cost = rebuild_reads(csr, informed_count);
    const bool took_delta =
        delta.has_value() && dirty_live_ && config_.policy != DeltaPolicy::never &&
        collect_candidates(csr, *delta,
                           config_.policy == DeltaPolicy::always
                               ? std::numeric_limits<std::int64_t>::max()
                               : rebuild_cost);
    if (took_delta) {
      apply_delta(csr);
    } else {
      rebuild(csr, informed_count, parallel_for);
    }
    // Adaptive tracking: when this change-point's delta was so large that
    // refreshing its endpoints alone (2·|Δ| nodes of about mean degree)
    // prices above a rebuild, the family is in step-sized-churn territory and
    // the next interval's dirty marks would be pure inform()-path overhead —
    // stop taking them, which forces (the equally-exact) rebuild next time.
    // Delta sizes are near-stationary for every registered family, so this
    // costs at most one suboptimal path choice after a regime shift. Path
    // choice never changes any value: both paths are bit-identical.
    dirty_live_ = config_.track_dirty && config_.policy != DeltaPolicy::never &&
                  (config_.policy == DeltaPolicy::always || !delta.has_value() ||
                   endpoint_reads(csr, *delta) * kDeltaCostFactor < rebuild_cost);
    return took_delta;
  }

  // What a rebuild at this change-point would read, in the delta path's
  // pricing unit: one per node for the O(n) phases, plus the adjacency
  // entries its gather reads, estimated from the mean degree d. The sparse
  // gather walks the informed lists (k·d) and runs the kernel on each
  // uninformed node they touch (at most min(n − k, k·d) of them); the full
  // gather runs it on every uninformed node ((n − k)·d).
  std::int64_t rebuild_reads(const CsrView& csr, std::int64_t informed_count) const {
    const auto n = static_cast<double>(n_);
    const double mean_degree = n_ > 0 ? static_cast<double>(csr.offsets[n_]) / n : 0.0;
    const auto informed = static_cast<double>(informed_count);
    const double uninformed = n - informed;
    const double gather =
        informed_count * 2 <= n_
            ? informed * mean_degree + std::min(uninformed, informed * mean_degree) * mean_degree
            : uninformed * mean_degree;
    return n_ + static_cast<std::int64_t>(gather);
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

  // An O(1) estimate of a delta path's price from the delta's size alone: its
  // 2·|Δ| endpoints refreshed as if all were uninformed, at 1 + mean degree
  // reads each, plus the blocks they would re-sum.
  std::int64_t endpoint_reads(const CsrView& csr, const TopologyDelta& delta) const {
    if (n_ == 0) return 0;
    const std::int64_t endpoints =
        2 * static_cast<std::int64_t>(delta.removed.size() + delta.added.size());
    const std::int64_t blocks = (n_ + kResumBlock - 1) / kResumBlock;
    return endpoints * (n_ + csr.offsets[n_]) / n_ + kResumBlock * std::min(endpoints, blocks);
  }

  // Collects the delta path's candidates, deduplicated on insertion through
  // touch_mark_, and prices them in adjacency reads: 1 + deg per uninformed
  // candidate (its kernel), 1 per informed one (its entry is written 0), 1
  // per distinct endpoint plus deg per informed endpoint (the walk over its
  // list), and kResumBlock per block resum_entries re-sums, estimated as
  // min(candidates, blocks) — the same 1 per entry the rebuild's n pays for
  // resum_all. Returns false, with every mark cleared, once that price times
  // kDeltaCostFactor reaches `budget` (a rebuild's price), so a huge delta
  // stops early.
  //
  // The candidates are the three sets the header derives: the interval's
  // dirty entries, the uninformed endpoints of changed edges and the
  // uninformed neighbours of the informed ones. Every endpoint's winv is
  // refreshed here, before any rate is recomputed; a rebuild that follows a
  // refused collection recomputes all of winv anyway.
  bool collect_candidates(const CsrView& csr, const TopologyDelta& delta, std::int64_t budget) {
    const Bitset& informed = *informed_;
    candidates_.clear();
    endpoints_.clear();
    std::int64_t reads = 0;
    auto add = [&](NodeId v) {
      std::uint8_t& mark = touch_mark_[static_cast<std::size_t>(v)];
      if ((mark & kCandidate) != 0) return;
      mark |= kCandidate;
      candidates_.push_back(v);
      reads += informed.test(static_cast<std::size_t>(v)) ? 1 : 1 + csr.degree(v);
    };
    const auto blocks = static_cast<std::size_t>(n_ + kResumBlock - 1) / kResumBlock;
    auto price = [&] {
      return reads + kResumBlock * static_cast<std::int64_t>(std::min(candidates_.size(), blocks));
    };
    for (NodeId v : dirty_) add(v);
    const std::int64_t limit = budget / kDeltaCostFactor;
    bool within = price() < limit;
    for (std::span<const Edge> part : {delta.removed, delta.added}) {
      for (std::size_t i = 0; within && i < part.size(); ++i) {
        for (const NodeId u : {part[i].u, part[i].v}) {
          std::uint8_t& mark = touch_mark_[static_cast<std::size_t>(u)];
          if ((mark & kEndpoint) != 0) continue;
          mark |= kEndpoint;
          endpoints_.push_back(u);
          const NodeId deg = csr.degree(u);
          winv_[static_cast<std::size_t>(u)] =
              deg > 0 ? config_.beta / static_cast<double>(deg) : 0.0;
          ++reads;
          if (!informed.test(static_cast<std::size_t>(u))) {
            add(u);
            continue;
          }
          reads += deg;
          for (NodeId w : csr.neighbors(u)) {
            if (!informed.test(static_cast<std::size_t>(w))) add(w);
          }
        }
        within = price() < limit;  // early out on huge deltas
      }
    }
    for (NodeId u : endpoints_) touch_mark_[static_cast<std::size_t>(u)] &= kCandidate;
    if (!within) {
      for (NodeId v : candidates_) touch_mark_[static_cast<std::size_t>(v)] = 0;
      return false;
    }
    delta_reads_ += price();
    return true;
  }

  // Puts candidates_ in ascending order and clears their marks, whichever way
  // is cheaper: a sort while they are few, else one sweep over the n mark
  // bytes, eight at a time with clear words skipped. A sort of c ids costs
  // about c·log2(c) compares and a sweep n/8 word loads; timed alone (4-vCPU
  // x86 VM) they break even near c = n/78 at n = 2·10^4, n/128 at n = 2^17
  // and n/256 at n = 2^20, and at the largest deltas of bench_delta_rates the
  // sweep halves the delta path's time.
  void order_candidates() {
    if (candidates_.size() * kSweepRatio < static_cast<std::size_t>(n_)) {
      for (NodeId v : candidates_) touch_mark_[static_cast<std::size_t>(v)] = 0;
      std::sort(candidates_.begin(), candidates_.end());
      return;
    }
    candidates_.clear();
    const auto nsz = static_cast<std::size_t>(n_);
    std::uint8_t* mark = touch_mark_.data();
    for (std::size_t i = 0; i < nsz; i += 8) {
      std::uint64_t word = 1;  // a tail shorter than a word is scanned bytewise
      if (i + 8 <= nsz) std::memcpy(&word, mark + i, 8);
      if (word == 0) continue;
      for (std::size_t k = i; k < std::min(i + 8, nsz); ++k) {
        if (mark[k] != 0) candidates_.push_back(static_cast<NodeId>(k));
        mark[k] = 0;
      }
    }
  }

  // The delta path: recompute the collected candidates in place through the
  // one kernel and let resum_entries re-derive the sums from their ascending
  // indices. O(Σ_candidates (1 + deg) + min(c·log c, n/8) + n/4096).
  void apply_delta(const CsrView& csr) {
    ++delta_updates_;
    const Bitset& informed = *informed_;
    order_candidates();
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

  // touch_mark_ flags: the sparse rebuild uses kCandidate alone.
  static constexpr std::uint8_t kCandidate = 1;
  static constexpr std::uint8_t kEndpoint = 2;
  // Entries per BlockRates block: what resum_entries re-sums per listed block.
  static constexpr std::int64_t kResumBlock = 64;
  // order_candidates sweeps the marks once candidates reach n / kSweepRatio.
  static constexpr std::size_t kSweepRatio = 128;

  NodeId n_ = 0;
  CsrView csr_;
  const Bitset* informed_ = nullptr;
  Config config_;
  BlockRates rates_;
  std::span<double> winv_;              // β/deg per node, arena-backed
  std::span<std::uint8_t> dirty_mark_;  // 1 = already in dirty_, arena-backed
  std::span<std::uint8_t> touch_mark_;  // kCandidate/kEndpoint flags, arena-backed
  std::vector<NodeId> touched_;         // sparse-rebuild targets (cleared after use)
  std::vector<NodeId> dirty_;           // entries drifted since the last (re)build
  bool dirty_live_ = false;             // dirty set complete since the last change-point
  std::vector<NodeId> endpoints_;       // delta-path scratch: distinct endpoints
  std::vector<NodeId> candidates_;      // delta-path scratch: distinct candidates
  std::int64_t delta_updates_ = 0;
  std::int64_t full_rebuilds_ = 0;
  std::int64_t delta_reads_ = 0;
};

}  // namespace rumor
