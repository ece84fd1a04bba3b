// Unit tests for the lane-blocked kernels (support/simd.h).
//
// The golden fingerprints pin one summation order, not an instruction set;
// these tests pin that order directly, on inputs a sequential running sum
// would round differently, so a rewrite to any other order fails here and not
// only in the fingerprint suite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "stats/distributions.h"
#include "stats/rng.h"
#include "support/simd.h"

namespace rumor {
namespace {

// EXPECT_EQ on doubles misses the -0.0 vs +0.0 and NaN cases; compare bytes.
::testing::AssertionResult BitEqual(double a, double b) {
  std::uint64_t ab = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ab, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  if (ab == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << a << " (0x" << std::hex << ab << ") != " << std::hexfloat << b
         << " (0x" << std::hex << bb << ")";
}

TEST(PortableLog, ExactlyZeroAtOne) {
  const double r = simd::portable_log(1.0);
  EXPECT_TRUE(BitEqual(r, 0.0));
  // And the negated transform must carry the sign: -log(1.0) = -0.0.
  double buf[1] = {1.0};
  simd::negative_log_transform(buf, 1);
  EXPECT_TRUE(BitEqual(buf[0], -0.0));
}

TEST(PortableLog, CloseToLibmOnUniformDomain) {
  // portable_log is faithfully rounded (~1 ulp); libm is as well, so the two
  // agree to a couple of ulp everywhere on the uniform_positive() domain.
  Rng rng(101);
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.uniform_positive();
    const double got = simd::portable_log(x);
    const double want = std::log(x);
    const double tol = 4.0 * std::numeric_limits<double>::epsilon() *
                       std::max(std::abs(want), 0.5);
    EXPECT_NEAR(got, want, tol) << "x=" << std::hexfloat << x;
  }
  // Domain endpoints: the smallest and largest uniform_positive() values.
  for (const double x : {0x1.0p-53, 1.0 - 0x1.0p-53, 0x1.0p-52}) {
    EXPECT_NEAR(simd::portable_log(x), std::log(x),
                4.0 * std::numeric_limits<double>::epsilon() * std::abs(std::log(x)));
  }
}

// x = {2^53, 1.0, 1.0, ...}: a running sum absorbs every 1.0 into 2^53
// (2^53 + 1 is a tie, and ties round to the even 2^53), so it stays at 2^53
// for every length. The lane-blocked order adds the 1.0s among themselves in
// their own accumulators and the reduction tree, so from length 4 on it lands
// above 2^53 — and at lengths 5 and 13 also differs from the tree that pairs
// lane j with j+1 first.
constexpr double kBig = 0x1p53;
// kBig + kAboveBig[len] is the lane-blocked sum of big_then_ones(len), len >= 1.
constexpr double kAboveBig[] = {0, 0, 0, 0, 2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 12, 12, 14, 14};
constexpr std::size_t kMaxLen = std::size(kAboveBig) - 1;

double want_sum(std::size_t len) { return len == 0 ? 0.0 : kBig + kAboveBig[len]; }

std::vector<double> big_then_ones(std::size_t len) {
  std::vector<double> x(len + 1, 1.0);  // +1 slot so data() is valid at len=0
  x[0] = kBig;
  return x;
}

TEST(LaneBlockedOrder, LaneSumPinsTheReductionTree) {
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    const std::vector<double> x = big_then_ones(len);
    EXPECT_TRUE(BitEqual(simd::lane_sum(x.data(), len), want_sum(len))) << "len=" << len;
    if (len >= 4) {
      double running = 0.0;
      for (std::size_t k = 0; k < len; ++k) running += x[k];
      EXPECT_FALSE(BitEqual(running, want_sum(len))) << "len=" << len << " does not discriminate";
    }
  }
}

// The canonical tree ((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)) as the level at
// which two accumulators meet: 1 for l_j+l_(j+4), 2 for two lanes of the same
// parity, 3 for the final add.
int join_level(std::size_t a, std::size_t b) {
  if ((a ^ b) == 4) return 1;
  return a % 2 == b % 2 ? 2 : 3;
}

TEST(LaneBlockedOrder, LaneSumPinsTheTreeShape) {
  // 2^53 in accumulator i and 1.0 in accumulators j and k: the 1.0s survive
  // (2^53 + 2 is exact) only when j and k meet before either meets i, and
  // are each absorbed otherwise. Every such triple pins the tree's shape;
  // placing the 1.0s at j+8 and k+8 also pins element -> accumulator k mod 8.
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      for (std::size_t k = j + 1; k < 8; ++k) {
        if (j == i || k == i) continue;
        const double want = join_level(j, k) < join_level(i, j) ? kBig + 2.0 : kBig;
        for (const std::size_t shift : {std::size_t{0}, std::size_t{8}}) {
          std::vector<double> x(16, 0.0);
          x[i] = kBig;
          x[j + shift] = 1.0;
          x[k + shift] = 1.0;
          EXPECT_TRUE(BitEqual(simd::lane_sum(x.data(), x.size()), want))
              << "big=" << i << " ones=" << j + shift << "," << k + shift;
        }
      }
    }
  }
}

TEST(LaneBlockedOrder, CrossingRatePinsTheReductionTree) {
  // Neighbour k of an all-informed list contributes winv[k] exactly
  // (push_flag 1.0, pull_w 0.0), so the sum is the lane_sum of winv.
  const std::size_t n = 64;
  const std::vector<std::uint64_t> informed(1, ~std::uint64_t{0});
  std::vector<std::int32_t> adj(n);
  for (std::size_t k = 0; k < n; ++k) adj[k] = static_cast<std::int32_t>(k);
  const std::vector<double> winv = big_then_ones(n);
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    const double got = simd::crossing_rate(adj.data(), len, informed.data(), winv.data(), 1.0, 0.0);
    EXPECT_TRUE(BitEqual(got, want_sum(len))) << "len=" << len;
  }
}

TEST(LaneBlockedOrder, CrossingRateMasksUninformedNeighbours) {
  // Even node ids informed; each informed neighbour adds push_flag·0.5 + 0.25,
  // each uninformed one adds +0.0. All values are exact.
  const std::vector<std::uint64_t> informed(1, 0x5555555555555555ULL);
  const std::vector<double> winv(64, 0.5);
  std::vector<std::int32_t> adj(17);
  for (std::size_t k = 0; k < adj.size(); ++k) adj[k] = static_cast<std::int32_t>(k);
  const auto rate = [&](const std::vector<std::uint64_t>& words, double push_flag) {
    return simd::crossing_rate(adj.data(), adj.size(), words.data(), winv.data(), push_flag, 0.25);
  };
  EXPECT_TRUE(BitEqual(rate(informed, 1.0), 9 * 0.75));
  EXPECT_TRUE(BitEqual(rate(informed, 0.0), 9 * 0.25));
  EXPECT_TRUE(BitEqual(rate(std::vector<std::uint64_t>(1, 0), 1.0), 0.0));
}

TEST(LaneBlockedOrder, FillWinvZeroDegreeIsPositiveZero) {
  // Degrees {0, 1, 3, 0, 4, 7, 0}: isolated nodes get exactly +0.0.
  const std::vector<std::int64_t> offsets = {0, 0, 1, 4, 4, 8, 15, 15};
  const double beta = 1.25;
  std::vector<double> got(7, -1.0);
  simd::fill_winv(offsets.data(), 0, 7, beta, got.data());
  const double want[] = {0.0, 1.25, 1.25 / 3.0, 0.0, 0.3125, 1.25 / 7.0, 0.0};
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_TRUE(BitEqual(got[i], want[i])) << "i=" << i;
  // A sub-range writes only its own entries.
  std::vector<double> part(7, -1.0);
  simd::fill_winv(offsets.data(), 1, 6, beta, part.data());
  EXPECT_TRUE(BitEqual(part[0], -1.0));
  EXPECT_TRUE(BitEqual(part[3], 0.0));
  EXPECT_TRUE(BitEqual(part[6], -1.0));
}

TEST(ExponentialBlock, BulkPathDrawsSameStreamAsPerEvent) {
  // The block refill must consume the Rng exactly like per-event sampling
  // and produce bitwise the same variates — the determinism contract that
  // lets the engines batch their clocks without changing any record.
  Rng block_rng(42);
  Rng event_rng(42);
  ExponentialBlock block(128);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(BitEqual(block.next(block_rng), sample_exponential(event_rng, 1.0))) << "i=" << i;
  }
  // Both consumed the same number of draws only at refill boundaries; after
  // whole blocks the underlying streams must coincide again.
  Rng a(43);
  Rng b(43);
  ExponentialBlock whole(64);
  for (int i = 0; i < 128; ++i) (void)whole.next(a);
  for (int i = 0; i < 128; ++i) (void)sample_exponential(b, 1.0);
  EXPECT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace rumor
