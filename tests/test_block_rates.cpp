// BlockRates (the jump engine's O(1)-update rate table), the Bitset informed
// set, and the block-drawn exponential clocks.
//
// BlockRates must be a drop-in behavioural replacement for FenwickTree on the
// operations the jump engine uses: same inverse-CDF sampling semantics (the
// smallest index whose prefix sum exceeds the target, zero-weight entries
// never returned), same clamping of accumulated float error. The equivalence
// tests drive both structures through identical random workloads and compare
// every answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fenwick.h"
#include "stats/block_rates.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "support/bitset.h"

namespace rumor {
namespace {

// Runs every tile on the calling thread, in index order.
const auto serial = [](std::int64_t tiles, auto&& fn) {
  for (std::int64_t t = 0; t < tiles; ++t) fn(t);
};

// Runs every tile on the calling thread, last tile first: a resum must not
// depend on the order its tiles complete in.
const auto reversed = [](std::int64_t tiles, auto&& fn) {
  for (std::int64_t t = tiles; t-- > 0;) fn(t);
};

// A table holding `rates` with exactly resummed sums: the in-place write and
// full resum a rate-model rebuild performs.
BlockRates table_of(const std::vector<double>& rates) {
  BlockRates table(rates.size());
  std::copy(rates.begin(), rates.end(), table.entries().begin());
  table.resum_all(serial);
  return table;
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

::testing::AssertionResult TablesBitIdentical(const BlockRates& a, const BlockRates& b) {
  const double ta = a.total();
  const double tb = b.total();
  if (bits_equal(a.values(), b.values()) && bits_equal(a.block_sums(), b.block_sums()) &&
      bits_equal(a.super_sums(), b.super_sums()) && std::memcmp(&ta, &tb, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "rate tables differ";
}

TEST(BlockRates_, WriteInPlaceAndResum) {
  const BlockRates r = table_of({1.0, 2.0, 3.0});
  EXPECT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r.total(), 6.0);
  EXPECT_DOUBLE_EQ(r.value(1), 2.0);
}

TEST(BlockRates_, SampleSelectsByPrefixSum) {
  const BlockRates r = table_of({1.0, 0.0, 2.0, 3.0});
  EXPECT_EQ(r.sample(0.0), 0u);
  EXPECT_EQ(r.sample(0.999), 0u);
  EXPECT_EQ(r.sample(1.0), 2u);  // index 1 has zero weight and is skipped
  EXPECT_EQ(r.sample(2.999), 2u);
  EXPECT_EQ(r.sample(3.0), 3u);
  EXPECT_EQ(r.sample(5.999), 3u);
}

TEST(BlockRates_, AddAndClearTrackTotals) {
  BlockRates r(10);
  r.add(4, 2.5);
  r.add(9, 1.5);
  EXPECT_DOUBLE_EQ(r.total(), 4.0);
  r.clear(4);
  EXPECT_DOUBLE_EQ(r.value(4), 0.0);
  EXPECT_DOUBLE_EQ(r.total(), 1.5);
  EXPECT_EQ(r.sample(0.7), 9u);
}

TEST(BlockRates_, NegativeClampMatchesFenwick) {
  BlockRates r(4);
  r.add(2, 1.0);
  r.add(2, -1.5);  // over-subtraction clamps to zero, like FenwickTree::add
  EXPECT_DOUBLE_EQ(r.value(2), 0.0);
  EXPECT_GE(r.total(), 0.0);
}

// The jump-engine workload, mirrored into a FenwickTree: random rewrites,
// clears, neighbour adds, and samples must agree everywhere — across sizes
// that cover one block, several blocks, and several superblocks.
TEST(BlockRates_, MatchesFenwickOnRandomWorkloads) {
  for (const std::size_t n : {5u, 64u, 100u, 5000u}) {
    Rng rng(1234 + n);
    std::vector<double> init(n);
    for (auto& w : init) w = rng.flip(0.3) ? 0.0 : rng.uniform() * 3.0;

    BlockRates blocks = table_of(init);
    FenwickTree fenwick;
    fenwick.assign(init);

    for (int op = 0; op < 2000; ++op) {
      const auto i = static_cast<std::size_t>(rng.below(n));
      switch (rng.below(3)) {
        case 0:
          blocks.clear(i);
          fenwick.set(i, 0.0);
          break;
        case 1: {
          const double delta = rng.uniform() * 0.5;
          blocks.add(i, delta);
          fenwick.add(i, delta);
          break;
        }
        case 2: {
          ASSERT_NEAR(blocks.total(), fenwick.total(), 1e-9 * (1.0 + fenwick.total()));
          // Sub-epsilon totals are pure accumulated drift over all-zero
          // values; both structures would hit their spill-over fallback.
          if (fenwick.total() <= 1e-9) break;
          const double target = rng.uniform() * std::min(blocks.total(), fenwick.total());
          EXPECT_EQ(blocks.sample(target), fenwick.sample(target)) << "n=" << n;
          break;
        }
      }
    }
  }
}

// resum_all must not depend on how its tiles are scheduled: serial in index
// order and last-tile-first give the same bits, across sizes that cover one
// tile (16384 entries), several tiles, and a ragged last block.
TEST(BlockRates_, ResumAllIdenticalForAnyTileOrder) {
  Rng rng(77);
  for (const std::size_t n : {1ul, 4097ul, 16384ul, 40001ul}) {
    std::vector<double> rates(n);
    for (double& x : rates) x = rng.flip(0.2) ? 0.0 : rng.uniform() * 3.0;
    const BlockRates in_order = table_of(rates);
    BlockRates out_of_order(n);
    std::copy(rates.begin(), rates.end(), out_of_order.entries().begin());
    out_of_order.resum_all(reversed);
    EXPECT_TRUE(TablesBitIdentical(in_order, out_of_order)) << "n=" << n;
  }
}

// resum_entries is the delta path's primitive: as long as every entry changed
// since the last resum is listed, the table must equal a full resum of the
// same entries bit for bit — including the block and superblock sums and the
// total.
TEST(BlockRates_, ResumEntriesBitIdenticalToResumAll) {
  Rng rng(404);
  for (const std::size_t n : {1ul, 63ul, 64ul, 4097ul, 20000ul}) {
    std::vector<double> rates(n);
    for (double& x : rates) x = rng.uniform() * 3.0;
    BlockRates table = table_of(rates);

    for (int round = 0; round < 20; ++round) {
      // Drift a random subset through add()/clear() — the interval's
      // incremental updates — while tracking the touched set.
      std::vector<std::size_t> touched;
      const int updates = static_cast<int>(rng.below(16)) + 1;
      for (int k = 0; k < updates; ++k) {
        const std::size_t i = static_cast<std::size_t>(rng.below(n));
        if (rng.flip(0.3)) {
          table.clear(i);
          rates[i] = 0.0;
        } else {
          const double delta = rng.uniform() - 0.3;
          table.add(i, delta);
          rates[i] = std::max(0.0, rates[i] + delta);
        }
        touched.push_back(i);
      }
      // Some externally recomputed values ride along (the delta path's
      // affected-neighbour recomputes).
      for (int k = 0; k < 4; ++k) {
        const std::size_t i = static_cast<std::size_t>(rng.below(n));
        rates[i] = rng.uniform() * 2.0;
        touched.push_back(i);
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      // The delta path rewrites every listed entry in place, then resums them.
      for (const std::size_t i : touched) table.entries()[i] = rates[i];
      table.resum_entries(std::span<const std::size_t>(touched));

      ASSERT_TRUE(TablesBitIdentical(table, table_of(rates))) << "n=" << n << " round=" << round;
    }
  }
}

// Runs `fn` and reports whether it threw std::invalid_argument whose message
// contains `contract`.
template <typename Fn>
::testing::AssertionResult RejectsWith(const std::string& contract, Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    if (std::string(e.what()).find(contract) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "wrong message: " << e.what();
  }
  return ::testing::AssertionFailure() << "no std::invalid_argument thrown";
}

TEST(BlockRates_, ResumEntriesRejectsUnorderedOrOutOfRangeIndex) {
  BlockRates table = table_of({1.0, 2.0, 3.0});
  const auto resum = [&](std::vector<std::int32_t> idx) {
    table.resum_entries(std::span<const std::int32_t>(idx));
  };
  EXPECT_TRUE(RejectsWith("strictly ascending", [&] { resum({2, 1}); }));
  EXPECT_TRUE(RejectsWith("strictly ascending", [&] { resum({1, 1}); }));
  EXPECT_TRUE(RejectsWith("out of range", [&] { resum({0, 3}); }));
  EXPECT_TRUE(RejectsWith("out of range", [&] { resum({-1}); }));
  EXPECT_NO_THROW(resum({0, 2}));
}

TEST(BlockRates_, ResumRejectsNegativeOrNanRate) {
  // Bad entries at an 8-aligned position, in a tail position past the last
  // whole group of 8, and past the first superblock (4096 entries).
  const struct {
    std::size_t n;
    std::size_t bad;
  } cases[] = {{64, 8}, {13, 11}, {5000, 4500}};
  for (const auto& c : cases) {
    for (const double bad : {-1.0, -0x1p-1074, std::nan("")}) {
      std::vector<double> rates(c.n, 1.0);
      rates[c.bad] = bad;
      EXPECT_TRUE(RejectsWith("rates must be non-negative", [&] { table_of(rates); }))
          << "n=" << c.n << " bad=" << c.bad << " value=" << bad;

      // The same entry written in place and resummed as a listed entry.
      BlockRates table = table_of(std::vector<double>(c.n, 1.0));
      table.entries()[c.bad] = bad;
      const std::vector<std::size_t> idx = {c.bad};
      EXPECT_TRUE(RejectsWith("rates must be non-negative",
                              [&] { table.resum_entries(std::span<const std::size_t>(idx)); }))
          << "n=" << c.n << " bad=" << c.bad << " value=" << bad;
    }
  }
  EXPECT_NO_THROW(table_of({0.0, -0.0, 1.0}));

  // Resums check per tile (16384 entries): index 20000 is in the second.
  std::vector<double> rates(20001, 1.0);
  for (const double bad : {-2.0, std::nan("")}) {
    rates[20000] = bad;
    BlockRates table(rates.size());
    std::copy(rates.begin(), rates.end(), table.entries().begin());
    EXPECT_TRUE(RejectsWith("rates must be non-negative", [&] { table.resum_all(reversed); }))
        << bad;
  }
}

TEST(Bitset_, SetTestClearCount) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.test(0));
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_EQ(b.count(), 3u);
  b.clear(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset_, SetAllKeepsTailExact) {
  Bitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  for (std::size_t i = 0; i < 70; ++i) EXPECT_TRUE(b.test(i)) << i;
  EXPECT_EQ(b.words().back(), (std::uint64_t{1} << 6) - 1);
}

// Determinism contract of the batched clocks: the variate stream is exactly
// the per-event sample_exponential(rng, 1.0) stream for the same seed —
// blocking only changes *when* the underlying uniforms are consumed.
TEST(ExponentialBlock_, StreamMatchesPerEventDraws) {
  Rng batched_rng(42);
  Rng direct_rng(42);
  ExponentialBlock clocks(128);
  for (int i = 0; i < 500; ++i) {
    EXPECT_DOUBLE_EQ(clocks.next(batched_rng), sample_exponential(direct_rng, 1.0)) << i;
  }
}

TEST(ExponentialBlock_, ProducesUnitMean) {
  Rng rng(7);
  ExponentialBlock clocks;
  double sum = 0.0;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) sum += clocks.next(rng);
  EXPECT_NEAR(sum / draws, 1.0, 0.02);
}

}  // namespace
}  // namespace rumor
