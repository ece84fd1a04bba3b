// Block-decomposed non-negative rate table with O(1) point update and
// inverse-CDF sampling by hierarchical linear scan.
//
// The jump engine's replacement for a Fenwick tree on its hottest operation:
// informing a node touches every uninformed neighbour's rate, and a Fenwick
// update costs O(log n) cache-missing tree hops per touch, so a clique trial
// pays O(n² log n). Here an update is three contiguous-array adds (entry,
// 64-entry block, 4096-entry superblock) and a running total — O(1) — while
// sampling degrades to O(n/4096 + 128) sequential scans that the prefetcher
// loves. Totals are maintained incrementally; assign() recomputes them
// exactly, and the engines re-assign at every topology change, which bounds
// floating-point drift between rebuilds. sample() clamps rounding spill-over
// to the last positive-rate entry, mirroring FenwickTree::sample.
//
// Every multi-term resum — per-block, per-superblock, and the total — runs
// through simd::lane_sum, the lane-blocked summation kernel
// (support/simd.h), so assign(), assign_tiled() and refresh_entries() share
// one bit-exact summation order on every build.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "support/contracts.h"
#include "support/simd.h"

namespace rumor {

class BlockRates {
 public:
  explicit BlockRates(std::size_t size = 0) { reset(size); }

  // Re-initializes to `size` zero rates.
  void reset(std::size_t size) {
    n_ = size;
    rate_.assign(size, 0.0);
    block_.assign((size + kBlock - 1) / kBlock, 0.0);
    super_.assign((size + kSuper - 1) / kSuper, 0.0);
    total_ = 0.0;
  }

  // Builds from explicit rates with exactly recomputed sums, O(n).
  void assign(std::span<const double> rates) {
    resize_tables(rates.size());
    fill_tile(rates, 0, n_);
    finish_assign();
  }

  // Parallel assign over superblock-aligned tiles. `parallel_for(tiles, fn)`
  // must invoke fn(tile) once for every tile in [0, tiles), in any order and
  // on any threads (e.g. TrialPool::run). Bit-identical to assign() for any
  // tiling: every tile copies a disjoint entry range and sums disjoint
  // whole blocks/superblocks in index order, and the cross-superblock total
  // is accumulated serially in index order afterwards. This keeps the
  // adversaries' large change-point rebuilds off the critical path at scale.
  template <typename ParallelFor>
  void assign_tiled(std::span<const double> rates, ParallelFor&& parallel_for) {
    resize_tables(rates.size());
    const std::size_t tiles = (n_ + kTile - 1) / kTile;
    parallel_for(static_cast<std::int64_t>(tiles), [&](std::int64_t tile) {
      const std::size_t begin = static_cast<std::size_t>(tile) * kTile;
      fill_tile(rates, begin, std::min(begin + kTile, n_));
    });
    finish_assign();
  }

  // Point-rewrites the listed entries and re-derives every sum they touch in
  // assign()'s exact summation order: each affected 64-entry block is resummed
  // from its entries, each affected superblock from its blocks, and the
  // cross-superblock total from all superblocks — every resum through the one
  // lane-blocked kernel (simd::lane_sum) assign() itself uses. Entries not
  // listed keep their values, so as long as `idx` covers every entry changed
  // since the last assign()/refresh_entries() call (including ones changed
  // through add()/clear()), the result is bit-identical to a full assign() of
  // the updated rate vector — the invariant the engines' delta path at
  // change-points is built on (core/rate_model.h). `idx` must be strictly
  // ascending; O(|idx|·64 + n/4096).
  void refresh_entries(std::span<const std::size_t> idx, std::span<const double> vals) {
    DG_REQUIRE(idx.size() == vals.size(), "index/value arity mismatch");
    for (std::size_t k = 0; k < idx.size(); ++k) {
      DG_REQUIRE(idx[k] < n_, "rate index out of range");
      DG_REQUIRE(vals[k] >= 0.0, "rates must be non-negative");
      DG_REQUIRE(k == 0 || idx[k - 1] < idx[k], "refresh indices must be strictly ascending");
      rate_[idx[k]] = vals[k];
    }
    for (std::size_t k = 0; k < idx.size();) {
      const std::size_t b = idx[k] / kBlock;
      while (k < idx.size() && idx[k] / kBlock == b) ++k;  // one resum per block
      const std::size_t lo = b * kBlock;
      block_[b] = simd::lane_sum(rate_.data() + lo, std::min(lo + kBlock, n_) - lo);
    }
    for (std::size_t k = 0; k < idx.size();) {
      const std::size_t s = idx[k] / kSuper;
      while (k < idx.size() && idx[k] / kSuper == s) ++k;  // one resum per superblock
      const std::size_t lo = s * kBlock;  // kSuper/kBlock == kBlock blocks per superblock
      super_[s] = simd::lane_sum(block_.data() + lo, std::min(lo + kBlock, block_.size()) - lo);
    }
    finish_assign();
  }

  std::size_t size() const { return n_; }
  double total() const { return total_; }

  // Read-only views of the raw tables, for the cross-path identity tests that
  // diff the delta path against a full rebuild bit for bit.
  std::span<const double> values() const { return rate_; }
  std::span<const double> block_sums() const { return block_; }
  std::span<const double> super_sums() const { return super_; }

  double value(std::size_t i) const {
    DG_REQUIRE(i < n_, "rate index out of range");
    return rate_[i];
  }

  // Hints the cache lines a forthcoming add(i)/clear(i) will touch. The
  // entry and block tables span megabytes at large n, so an inform()-burst
  // of neighbour updates is latency-bound without this; prefetching is
  // advisory and cannot change any value.
  void prefetch(std::size_t i) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&rate_[i], 1);
    __builtin_prefetch(&block_[i / kBlock], 1);
#else
    (void)i;
#endif
  }

  // Adds delta to rate i; the result is clamped at zero (absorbing the same
  // accumulated float error FenwickTree::add tolerates).
  void add(std::size_t i, double delta) {
    DG_ASSERT(i < n_, "rate index out of range");
    const double next = rate_[i] + delta;
    if (next < 0.0) delta = -rate_[i];  // clamp: apply the same delta everywhere
    rate_[i] += delta;
    if (rate_[i] < 0.0) rate_[i] = 0.0;
    block_[i / kBlock] += delta;
    super_[i / kSuper] += delta;
    total_ += delta;
    if (total_ < 0.0) total_ = 0.0;
  }

  // Sets rate i to zero (a node got informed).
  void clear(std::size_t i) {
    DG_ASSERT(i < n_, "rate index out of range");
    add(i, -rate_[i]);
  }

  // Smallest index whose prefix sum exceeds `target`, for target uniform on
  // [0, total()). Zero-rate entries are never returned for in-range targets;
  // rounding spill-over falls back to the last positive-rate entry.
  std::size_t sample(double target) const {
    DG_REQUIRE(n_ > 0, "cannot sample from an empty rate table");
    DG_REQUIRE(target >= 0.0, "sampling target must be non-negative");
    std::size_t s = 0;
    while (s + 1 < super_.size() && super_[s] <= target) target -= super_[s++];
    std::size_t b = s * kBlock;
    const std::size_t b_end = std::min(b + kBlock, block_.size());
    while (b + 1 < b_end && block_[b] <= target) target -= block_[b++];
    std::size_t i = b * kBlock;
    const std::size_t i_end = std::min(i + kBlock, n_);
    while (i + 1 < i_end && rate_[i] <= target) target -= rate_[i++];
    if (rate_[i] <= 0.0) {
      // Rounding spill-over: fall back to the last positive-rate entry.
      std::size_t j = i;
      while (j > 0) {
        --j;
        if (rate_[j] > 0.0) return j;
      }
      DG_ASSERT(false, "sampled from an all-zero rate table");
    }
    return i;
  }

 private:
  static constexpr std::size_t kBlock = 64;            // entries per block
  static constexpr std::size_t kSuper = kBlock * 64;   // entries per superblock
  static constexpr std::size_t kTile = kSuper * 4;     // entries per rebuild tile

  // Sizes the SoA tables without touching entry values (vector capacity is
  // reused across trials of the same n).
  void resize_tables(std::size_t size) {
    n_ = size;
    rate_.resize(size);
    block_.assign((size + kBlock - 1) / kBlock, 0.0);
    super_.assign((size + kSuper - 1) / kSuper, 0.0);
    total_ = 0.0;
  }

  // Copies one entry range and sums its blocks/superblocks through the
  // lane-blocked kernel. The copy doubles as the non-negativity check: a
  // branch-free violation flag accumulates across the copy (!(x >= 0) also
  // catches NaN), and only when it fires does a rescan name the offending
  // entry. `begin` must be superblock-aligned so concurrent tiles never share
  // a partial sum.
  void fill_tile(std::span<const double> rates, std::size_t begin, std::size_t end) {
    DG_ASSERT(begin % kSuper == 0, "tile start must be superblock-aligned");
    bool bad = false;
    for (std::size_t i = begin; i < end; ++i) {
      bad |= !(rates[i] >= 0.0);
      rate_[i] = rates[i];
    }
    if (bad) {
      for (std::size_t j = begin; j < end; ++j) {
        DG_REQUIRE(rates[j] >= 0.0, "rates must be non-negative");
      }
    }
    for (std::size_t b = begin / kBlock; b < (end + kBlock - 1) / kBlock; ++b) {
      const std::size_t lo = b * kBlock;
      block_[b] = simd::lane_sum(rate_.data() + lo, std::min(lo + kBlock, n_) - lo);
    }
    for (std::size_t s = begin / kSuper; s < (end + kSuper - 1) / kSuper; ++s) {
      const std::size_t lo = s * kBlock;  // kSuper/kBlock == kBlock blocks per superblock
      super_[s] = simd::lane_sum(block_.data() + lo, std::min(lo + kBlock, block_.size()) - lo);
    }
  }

  // Cross-superblock total — the same lane-blocked kernel over the superblock
  // array, identical for any tiling because it always runs over the whole
  // array after the tiles complete.
  void finish_assign() { total_ = simd::lane_sum(super_); }

  std::size_t n_ = 0;
  std::vector<double> rate_;   // raw rates
  std::vector<double> block_;  // per-64 sums
  std::vector<double> super_;  // per-4096 sums
  double total_ = 0.0;
};

}  // namespace rumor
