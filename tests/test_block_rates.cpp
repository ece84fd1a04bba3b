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
#include <cstring>
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

TEST(BlockRates_, AssignAndTotal) {
  BlockRates r;
  r.assign(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r.total(), 6.0);
  EXPECT_DOUBLE_EQ(r.value(1), 2.0);
}

TEST(BlockRates_, SampleSelectsByPrefixSum) {
  BlockRates r;
  r.assign(std::vector<double>{1.0, 0.0, 2.0, 3.0});
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

// The jump-engine workload, mirrored into a FenwickTree: random assigns,
// clears, neighbour adds, and samples must agree everywhere — across sizes
// that cover one block, several blocks, and several superblocks.
TEST(BlockRates_, MatchesFenwickOnRandomWorkloads) {
  for (const std::size_t n : {5u, 64u, 100u, 5000u}) {
    Rng rng(1234 + n);
    std::vector<double> init(n);
    for (auto& w : init) w = rng.flip(0.3) ? 0.0 : rng.uniform() * 3.0;

    BlockRates blocks;
    blocks.assign(init);
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

// refresh_entries is the delta path's primitive: as long as every entry
// changed since the last assign() is listed, the table must equal a fresh
// assign() of the full rate vector bit for bit — including the block and
// superblock sums and the total.
TEST(BlockRates_, RefreshEntriesBitIdenticalToAssign) {
  Rng rng(404);
  for (const std::size_t n : {1ul, 63ul, 64ul, 4097ul, 20000ul}) {
    std::vector<double> rates(n);
    for (double& x : rates) x = rng.uniform() * 3.0;
    BlockRates table;
    table.assign(rates);

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
      std::vector<double> values;
      values.reserve(touched.size());
      for (const std::size_t i : touched) values.push_back(rates[i]);
      table.refresh_entries(touched, values);

      BlockRates fresh;
      fresh.assign(rates);
      ASSERT_EQ(0, std::memcmp(table.values().data(), fresh.values().data(),
                               n * sizeof(double)));
      ASSERT_EQ(0, std::memcmp(table.block_sums().data(), fresh.block_sums().data(),
                               table.block_sums().size() * sizeof(double)));
      ASSERT_EQ(0, std::memcmp(table.super_sums().data(), fresh.super_sums().data(),
                               table.super_sums().size() * sizeof(double)));
      const double a = table.total();
      const double b = fresh.total();
      ASSERT_EQ(0, std::memcmp(&a, &b, sizeof(double)));
    }
  }
}

TEST(BlockRates_, RefreshEntriesValidatesInput) {
  BlockRates table;
  table.assign(std::vector<double>{1.0, 2.0, 3.0});
  const std::vector<std::size_t> unsorted = {2, 1};
  const std::vector<double> values = {1.0, 1.0};
  EXPECT_THROW(table.refresh_entries(unsorted, values), std::invalid_argument);
  const std::vector<std::size_t> arity = {1};
  EXPECT_THROW(table.refresh_entries(arity, values), std::invalid_argument);
}

// Runs `fn` and reports whether it threw std::invalid_argument naming the
// non-negativity contract.
template <typename Fn>
::testing::AssertionResult RejectsNegativeRate(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    if (std::string(e.what()).find("rates must be non-negative") != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "wrong message: " << e.what();
  }
  return ::testing::AssertionFailure() << "no std::invalid_argument thrown";
}

TEST(BlockRates_, AssignRejectsNegativeOrNanRate) {
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
      BlockRates table;
      EXPECT_TRUE(RejectsNegativeRate([&] { table.assign(rates); }))
          << "n=" << c.n << " bad=" << c.bad << " value=" << bad;
    }
  }
  BlockRates table;
  EXPECT_NO_THROW(table.assign(std::vector<double>{0.0, -0.0, 1.0}));

  // assign_tiled checks per tile (16384 entries): index 20000 is in the second.
  std::vector<double> rates(20001, 1.0);
  const auto serial = [](std::int64_t tiles, auto&& fn) {
    for (std::int64_t t = 0; t < tiles; ++t) fn(t);
  };
  for (const double bad : {-2.0, std::nan("")}) {
    rates[20000] = bad;
    EXPECT_TRUE(RejectsNegativeRate([&] { table.assign_tiled(rates, serial); })) << bad;
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
  const auto flags = b.to_flags();
  ASSERT_EQ(flags.size(), 70u);
  for (auto f : flags) EXPECT_EQ(f, 1);
}

TEST(Bitset_, ToFlagsRoundTrip) {
  Bitset b(10);
  b.set(2);
  b.set(7);
  const auto flags = b.to_flags();
  const std::vector<std::uint8_t> expected = {0, 0, 1, 0, 0, 0, 0, 1, 0, 0};
  EXPECT_EQ(flags, expected);
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
