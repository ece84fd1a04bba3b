#include "stats/distributions.h"

#include <cmath>

#include "support/contracts.h"
#include "support/simd.h"

namespace rumor {

// The exponential/geometric inverse-CDF samplers run on simd::portable_log,
// not std::log: uniform_positive() ∈ [2^-53, 1] is exactly its domain, it is
// bitwise identical between the per-event call here and the block transform
// in ExponentialBlock::refill, and it removes the platform libm
// from the event-path record contract entirely (std::log implementations
// differ across architectures; portable_log is one fixed IEEE sequence).
double sample_exponential(Rng& rng, double rate) {
  DG_REQUIRE(rate > 0.0, "exponential rate must be positive");
  return -simd::portable_log(rng.uniform_positive()) / rate;
}

ExponentialBlock::ExponentialBlock(std::size_t block) : block_(block) {
  DG_REQUIRE(block >= 1, "block size must be positive");
  buf_.reserve(block);
}

void ExponentialBlock::refill(Rng& rng) {
  buf_.resize(block_);
  // Uniforms first, in sequence (the determinism contract in the header),
  // then one -log sweep — the abseil pool_urbg shape: bulk generation
  // feeding a tight transform the compiler can pipeline.
  for (double& e : buf_) e = rng.uniform_positive();
  simd::negative_log_transform(buf_.data(), buf_.size());
  pos_ = 0;
}

namespace {

std::int64_t poisson_knuth(Rng& rng, double mean) {
  const double limit = std::exp(-mean);
  double prod = 1.0;
  std::int64_t k = -1;
  do {
    ++k;
    prod *= rng.uniform_positive();
  } while (prod > limit);
  return k;
}

// PTRS: "transformed rejection with squeeze" (W. Hörmann, 1993), valid for
// mean >= 10. Constant-time in expectation for arbitrarily large means.
std::int64_t poisson_ptrs(Rng& rng, double mean) {
  const double slam = std::sqrt(mean);
  const double loglam = std::log(mean);
  const double b = 0.931 + 2.53 * slam;
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double vr = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = rng.uniform() - 0.5;
    const double v = rng.uniform_positive();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= vr) return static_cast<std::int64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        k * loglam - mean - std::lgamma(k + 1.0)) {
      return static_cast<std::int64_t>(k);
    }
  }
}

}  // namespace

std::int64_t sample_poisson(Rng& rng, double mean) {
  DG_REQUIRE(mean >= 0.0, "Poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 10.0) return poisson_knuth(rng, mean);
  return poisson_ptrs(rng, mean);
}

std::int64_t sample_geometric(Rng& rng, double p) {
  DG_REQUIRE(p > 0.0 && p <= 1.0, "geometric parameter must lie in (0,1]");
  if (p == 1.0) return 0;
  // Inverse CDF: floor(log(U) / log(1-p)). The U transform shares the
  // portable log of support/simd.h; log1p of the fixed parameter stays on
  // libm.
  return static_cast<std::int64_t>(std::floor(simd::portable_log(rng.uniform_positive()) /
                                              std::log1p(-p)));
}

std::int64_t sample_binomial(Rng& rng, std::int64_t n, double p) {
  DG_REQUIRE(n >= 0, "binomial n must be non-negative");
  DG_REQUIRE(p >= 0.0 && p <= 1.0, "binomial p must lie in [0,1]");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - sample_binomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < 30.0) {
    // Waiting-time method: skip geometric gaps between successes.
    std::int64_t count = 0;
    std::int64_t pos = -1;
    const double log1mp = std::log1p(-p);
    for (;;) {
      pos += 1 + static_cast<std::int64_t>(std::floor(std::log(rng.uniform_positive()) / log1mp));
      if (pos >= n) break;
      ++count;
    }
    return count;
  }
  // Normal-approximation rejection would be faster but plain summation of a
  // Poisson split keeps the sampler exact: Binomial(n,p) as counting thinning.
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < n; ++i) count += rng.flip(p) ? 1 : 0;
  return count;
}

double poisson_cdf(double mean, std::int64_t k) {
  DG_REQUIRE(mean >= 0.0, "Poisson mean must be non-negative");
  if (k < 0) return 0.0;
  // Sum in log space from the mode downwards is unnecessary here: terms are
  // accumulated in linear space with scaling as means in the benches stay
  // below ~1e4 where exp(-mean) underflow is handled via log-term summation.
  double log_term = -mean;  // log Pr[X = 0]
  double acc = 0.0;
  double max_log = log_term;
  // First pass: find max log-term for stable exponentiation.
  double lt = log_term;
  for (std::int64_t j = 1; j <= k; ++j) {
    lt += std::log(mean) - std::log(static_cast<double>(j));
    if (lt > max_log) max_log = lt;
  }
  lt = log_term;
  acc += std::exp(lt - max_log);
  for (std::int64_t j = 1; j <= k; ++j) {
    lt += std::log(mean) - std::log(static_cast<double>(j));
    acc += std::exp(lt - max_log);
  }
  return std::exp(max_log) * acc;
}

double log_gamma(double x) { return std::lgamma(x); }

}  // namespace rumor
