// Block-decomposed non-negative rate table with O(1) point update and
// inverse-CDF sampling by hierarchical linear scan.
//
// The jump engine's replacement for a Fenwick tree on its hottest operation:
// informing a node touches every uninformed neighbour's rate, and a Fenwick
// update costs O(log n) cache-missing tree hops per touch, so a clique trial
// pays O(n² log n). Here an update is three contiguous-array adds (entry,
// 64-entry block, 4096-entry superblock) and a running total — O(1) — while
// sampling degrades to O(n/4096 + 128) sequential scans that the prefetcher
// loves. Totals are maintained incrementally. At every topology change the
// engines write the new rates straight into entries() and resum_all()
// recomputes every sum exactly, which bounds floating-point drift between
// rebuilds. sample() clamps rounding spill-over to the last positive-rate
// entry, mirroring FenwickTree::sample.
//
// There is one resum path: every multi-term sum — per-block, per-superblock,
// and the total — runs through simd::lane_sum, the lane-blocked summation
// kernel (support/simd.h), over the same whole blocks in the same order, so
// resum_all() at any tiling and resum_entries() agree bit for bit on every
// build.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/contracts.h"
#include "support/simd.h"

namespace rumor {

class BlockRates {
 public:
  // `size` zero rates.
  explicit BlockRates(std::size_t size = 0) { resize(size); }

  // Sizes the table to `size` entries for a rewrite through entries().
  // Entries that existed keep their values and new ones read 0 (capacity is
  // reused across trials of the same n); every sum is stale until resum_all().
  void resize(std::size_t size) {
    n_ = size;
    rate_.resize(size);
    block_.resize((size + kBlock - 1) / kBlock);
    super_.resize((size + kSuper - 1) / kSuper);
  }

  // The entry array, for in-place writes. Writes bypass the sums: follow
  // them with resum_all() or, for a listed subset, resum_entries().
  std::span<double> entries() { return rate_; }

  // Re-derives every block/superblock sum and the total from the entries,
  // O(n). `parallel_for(tiles, fn)` must invoke fn(tile) once for every tile
  // in [0, tiles), in any order and on any threads (e.g. TrialPool::run), or
  // serially. Bit-identical for any tiling: each superblock-aligned tile sums
  // disjoint whole blocks/superblocks in index order, and the
  // cross-superblock total is accumulated serially afterwards. Every entry is
  // checked non-negative (a NaN fails too) on the way.
  template <typename ParallelFor>
  void resum_all(ParallelFor&& parallel_for) {
    const std::size_t tiles = (n_ + kTile - 1) / kTile;
    parallel_for(static_cast<std::int64_t>(tiles), [&](std::int64_t tile) {
      const std::size_t begin = static_cast<std::size_t>(tile) * kTile;
      const std::size_t end = std::min(begin + kTile, n_);
      for (std::size_t b = begin / kBlock; b < (end + kBlock - 1) / kBlock; ++b) {
        resum_block(b);
      }
      for (std::size_t s = begin / kSuper; s < (end + kSuper - 1) / kSuper; ++s) {
        resum_super(s);
      }
    });
    finish_resum();
  }

  // Re-derives the sums the listed entries feed, in resum_all()'s exact
  // summation order: each affected 64-entry block from its entries, each
  // affected superblock from its blocks, and the total from all superblocks.
  // As long as `idx` covers every entry changed since the last resum
  // (including ones changed through add()/clear()), the result is
  // bit-identical to resum_all() — the invariant the engines' delta path at
  // change-points is built on (core/rate_model.h). `idx` must be strictly
  // ascending and in range; every entry of an affected block is checked
  // non-negative. O(|idx|·64 + n/4096).
  template <typename Index>
  void resum_entries(std::span<const Index> idx) {
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const auto i = static_cast<std::size_t>(idx[k]);
      DG_REQUIRE(i < n_, "rate index out of range");
      DG_REQUIRE(k == 0 || static_cast<std::size_t>(idx[k - 1]) < i,
                 "resum indices must be strictly ascending");
    }
    for (std::size_t k = 0; k < idx.size();) {
      const std::size_t b = static_cast<std::size_t>(idx[k]) / kBlock;
      while (k < idx.size() && static_cast<std::size_t>(idx[k]) / kBlock == b) ++k;
      resum_block(b);
    }
    for (std::size_t k = 0; k < idx.size();) {
      const std::size_t s = static_cast<std::size_t>(idx[k]) / kSuper;
      while (k < idx.size() && static_cast<std::size_t>(idx[k]) / kSuper == s) ++k;
      resum_super(s);
    }
    finish_resum();
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

  std::size_t block_len(std::size_t b) const {
    return std::min(b * kBlock + kBlock, n_) - b * kBlock;
  }

  // One block's sum through the lane-blocked kernel, after a branch-free
  // check of its entries (!(x >= 0) also catches NaN); only when the check
  // fires does a rescan name the offending entry.
  void resum_block(std::size_t b) {
    const double* entry = rate_.data() + b * kBlock;
    const std::size_t len = block_len(b);
    bool bad = false;
    for (std::size_t k = 0; k < len; ++k) bad |= !(entry[k] >= 0.0);
    if (bad) {
      for (std::size_t k = 0; k < len; ++k) {
        DG_REQUIRE(entry[k] >= 0.0, "rates must be non-negative (entry " +
                                        std::to_string(b * kBlock + k) + ")");
      }
    }
    block_[b] = simd::lane_sum(entry, len);
  }

  void resum_super(std::size_t s) {
    const std::size_t lo = s * kBlock;  // kSuper/kBlock == kBlock blocks per superblock
    super_[s] = simd::lane_sum(block_.data() + lo, std::min(lo + kBlock, block_.size()) - lo);
  }

  // Cross-superblock total — the same lane-blocked kernel over the superblock
  // array, identical for any tiling because it always runs over the whole
  // array after the tiles complete.
  void finish_resum() { total_ = simd::lane_sum(super_); }

  std::size_t n_ = 0;
  std::vector<double> rate_;   // raw rates
  std::vector<double> block_;  // per-64 sums
  std::vector<double> super_;  // per-4096 sums
  double total_ = 0.0;
};

}  // namespace rumor
