// Unit tests for the Fenwick tree that test_block_rates uses as its oracle.
#include <gtest/gtest.h>

#include <vector>

#include "fenwick.h"
#include "stats/rng.h"

namespace rumor {
namespace {

TEST(Fenwick, PrefixSumsAgainstNaive) {
  const std::vector<double> w{0.5, 0.0, 2.0, 1.25, 0.0, 3.0, 0.25};
  FenwickTree f;
  f.assign(w);
  double acc = 0.0;
  for (std::size_t i = 0; i <= w.size(); ++i) {
    EXPECT_NEAR(f.prefix_sum(i), acc, 1e-12);
    if (i < w.size()) acc += w[i];
  }
  EXPECT_NEAR(f.total(), acc, 1e-12);
}

TEST(Fenwick, SetAndAddKeepSumsConsistent) {
  FenwickTree f(10);
  EXPECT_DOUBLE_EQ(f.total(), 0.0);
  f.set(3, 2.0);
  f.set(7, 1.0);
  f.add(3, 0.5);
  EXPECT_NEAR(f.value(3), 2.5, 1e-12);
  EXPECT_NEAR(f.total(), 3.5, 1e-12);
  EXPECT_NEAR(f.prefix_sum(4), 2.5, 1e-12);
  f.set(3, 0.0);
  EXPECT_NEAR(f.total(), 1.0, 1e-12);
}

TEST(Fenwick, RejectsNegativeAndOutOfRange) {
  FenwickTree f(4);
  EXPECT_THROW(f.set(4, 1.0), std::invalid_argument);
  EXPECT_THROW(f.set(0, -1.0), std::invalid_argument);
  EXPECT_THROW(f.value(4), std::invalid_argument);
  EXPECT_THROW(f.prefix_sum(5), std::invalid_argument);
}

TEST(Fenwick, SampleBoundariesSelectCorrectIndex) {
  FenwickTree f;
  f.assign({1.0, 2.0, 3.0});
  // CDF boundaries: [0,1) -> 0, [1,3) -> 1, [3,6) -> 2.
  EXPECT_EQ(f.sample(0.0), 0u);
  EXPECT_EQ(f.sample(0.999), 0u);
  EXPECT_EQ(f.sample(1.0), 1u);
  EXPECT_EQ(f.sample(2.999), 1u);
  EXPECT_EQ(f.sample(3.0), 2u);
  EXPECT_EQ(f.sample(5.999), 2u);
}

TEST(Fenwick, SampleSkipsZeroWeights) {
  FenwickTree f;
  f.assign({0.0, 1.0, 0.0, 2.0, 0.0});
  for (double t : {0.0, 0.5, 0.99}) EXPECT_EQ(f.sample(t), 1u);
  for (double t : {1.0, 2.0, 2.99}) EXPECT_EQ(f.sample(t), 3u);
}

TEST(Fenwick, SampleClampsRoundingSpill) {
  FenwickTree f;
  f.assign({1.0, 2.0});
  // Slightly past the total: must return the last positive-weight index.
  EXPECT_EQ(f.sample(3.0 + 1e-9), 1u);
}

TEST(Fenwick, SampleMatchesWeightsStatistically) {
  FenwickTree f;
  const std::vector<double> w{1.0, 0.0, 3.0, 6.0};
  f.assign(w);
  Rng rng(33);
  std::vector<int> counts(w.size(), 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) ++counts[f.sample(rng.uniform() * f.total())];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(samples), 0.1, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(samples), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(samples), 0.6, 0.01);
}

TEST(Fenwick, DynamicUpdateSampling) {
  // Mirror of the engine's usage pattern: zero-out sampled entries.
  FenwickTree f;
  f.assign({1.0, 1.0, 1.0, 1.0});
  Rng rng(34);
  std::vector<bool> seen(4, false);
  for (int round = 0; round < 4; ++round) {
    const auto i = f.sample(rng.uniform() * f.total());
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
    f.set(i, 0.0);
  }
  EXPECT_DOUBLE_EQ(f.total(), 0.0);
}

TEST(Fenwick, ResetReinitializes) {
  FenwickTree f(3);
  f.set(0, 5.0);
  f.reset(5);
  EXPECT_EQ(f.size(), 5u);
  EXPECT_DOUBLE_EQ(f.total(), 0.0);
}

TEST(Fenwick, LargeRandomizedAgainstNaive) {
  Rng rng(35);
  const std::size_t n = 1000;
  std::vector<double> naive(n, 0.0);
  FenwickTree f(n);
  for (int op = 0; op < 5000; ++op) {
    const auto i = static_cast<std::size_t>(rng.below(n));
    const double w = rng.uniform() * 10.0;
    naive[i] = w;
    f.set(i, w);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(f.prefix_sum(i), acc, 1e-7);
    acc += naive[i];
  }
}

}  // namespace
}  // namespace rumor
