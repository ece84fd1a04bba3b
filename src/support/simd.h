// Lane-blocked arithmetic: the hot-loop kernels whose summation order the
// golden fingerprints pin (docs/ARCHITECTURE.md §"Lane-blocked arithmetic").
//
// Every kernel here is *bit-deterministic across instruction sets*. Each
// multi-term sum uses the same lane-blocked order: element k accumulates into
// accumulator k mod 8, and the 8 accumulators collapse through one fixed
// reduction tree
//
//     ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))
//
// IEEE-754 addition, multiplication and division are exactly rounded, so a
// fixed operation sequence yields identical bits whether the compiler emits
// scalar or vector instructions for it. The one way the bits could move
// between -march levels is a *different* sequence (fused multiply-adds),
// which the build forbids globally with -ffp-contract=off
// (cmake/BuildFlags.cmake). The order, not the instruction set, is the
// contract; tests/test_simd.cpp pins it with inputs a sequential running sum
// would round differently.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace rumor::simd {

// fdlibm e_log constants (Sun Microsystems, freely redistributable): the
// argument-reduction offset (the bits of sqrt(2)/2), the hi/lo split of ln 2,
// and the minimax polynomial for log((1+s)/(1-s)) on the reduced interval.
inline constexpr std::uint64_t kLogOff = 0x3fe6a09e667f3bcdULL;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;

// log(x) for positive normal x — the uniform_positive() ∈ [2^-53, 1] domain.
// A fixed operation sequence, so the result does not depend on the platform
// libm; ~1 ulp, and exactly 0.0 at x = 1. Not a general log: no
// zero/negative/inf/NaN/denormal handling.
inline double portable_log(double x) {
  const std::uint64_t ix = std::bit_cast<std::uint64_t>(x);
  // Reduce x = 2^k · z with z ∈ [√½, √2): subtracting the bits of √½ makes
  // the biased-exponent field carry exactly k.
  const std::uint64_t tmp = ix - kLogOff;
  const double dk = static_cast<double>(static_cast<std::int64_t>(tmp) >> 52);
  const double z = std::bit_cast<double>(ix - (tmp & 0xfff0000000000000ULL));
  const double f = z - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double ss = s * s;
  const double ww = ss * ss;
  const double t1 = ww * (kLg2 + ww * (kLg4 + ww * kLg6));
  const double t2 = ss * (kLg1 + ww * (kLg3 + ww * (kLg5 + ww * kLg7)));
  const double r = t2 + t1;
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

// The fixed reduction tree over the 8 accumulators.
inline double reduce8(const double* acc) {
  const double a04 = acc[0] + acc[4];
  const double a15 = acc[1] + acc[5];
  const double a26 = acc[2] + acc[6];
  const double a37 = acc[3] + acc[7];
  return (a04 + a26) + (a15 + a37);
}

// Lane-blocked sum: element k accumulates into accumulator k mod 8, reduced
// through the fixed tree. The single definition of "sum of a block" used by
// BlockRates' block/superblock/total resums.
inline double lane_sum(const double* x, std::size_t len) {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (std::size_t k = 0; k < len; ++k) acc[k % 8] += x[k];
  return reduce8(acc);
}

inline double lane_sum(std::span<const double> x) { return lane_sum(x.data(), x.size()); }

// winv refresh over CSR degrees: winv[i] = beta / deg(i), or 0.0 for isolated
// nodes. Elementwise, so there is no order to fix.
inline void fill_winv(const std::int64_t* offsets, std::size_t begin, std::size_t end, double beta,
                      double* winv) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::int64_t deg = offsets[i + 1] - offsets[i];
    winv[i] = deg > 0 ? beta / static_cast<double>(deg) : 0.0;
  }
}

// r(v) for one node: lane-blocked over the *positions* of its adjacency list.
// Neighbour at position k contributes to accumulator k mod 8 the value
//
//     m · (push_flag · winv[w] + pull_w)
//
// with m = 1.0 when w is informed and 0.0 otherwise. push_flag ∈ {1.0, 0.0}
// and the multiplication by m is exact — x·1.0 == x and x·0.0 == +0.0 for
// this finite non-negative domain — so uninformed neighbours add a bitwise
// no-op +0.0. Every r(v) in the engine — full gather, sparse rebuild, delta
// refresh — comes from this one kernel, which is what makes the three paths
// bit-identical by construction (core/rate_model.h).
inline double crossing_rate(const std::int32_t* adj, std::size_t deg,
                            const std::uint64_t* informed_words, const double* winv,
                            double push_flag, double pull_w) {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (std::size_t k = 0; k < deg; ++k) {
    const auto w = static_cast<std::uint32_t>(adj[k]);
    const double m = ((informed_words[w >> 6] >> (w & 63u)) & 1u) != 0 ? 1.0 : 0.0;
    const double t = push_flag * winv[w];
    const double s = t + pull_w;
    acc[k % 8] += m * s;
  }
  return reduce8(acc);
}

// In-place x → -log(x) over positive normal inputs (-log(1.0) is -0.0).
inline void negative_log_transform(double* buf, std::size_t len) {
  for (std::size_t k = 0; k < len; ++k) buf[k] = -portable_log(buf[k]);
}

}  // namespace rumor::simd
