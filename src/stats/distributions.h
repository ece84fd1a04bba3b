// Samplers for the distributions the rumor-spreading analysis lives on:
// exponential clocks, Poisson counts (Lemma 2.2), geometric round counts
// (Theorem 1.7(iii) proof), and binomials for the synchronous analysis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/rng.h"

namespace rumor {

// Exponential(rate): inverse-CDF sampling. rate must be > 0.
double sample_exponential(Rng& rng, double rate);

// Unit-rate exponential clock variates drawn in blocks.
//
// The async engines consume one exponential per event; drawing them a block at
// a time turns the per-event uniform+log into a bulk refill whose -log(U)
// sweep runs on the portable log of support/simd.h.
// Determinism contract: a refill draws `block` uniforms from the caller's Rng
// in sequence and next() hands them back in that same order, and the sweep
// applies the same portable_log as the per-event path, so the
// variate *stream* is identical to per-event sample_exponential(rng, 1.0)
// calls — only the interleaving with other draws from the same Rng shifts,
// which is why the jump/tick engines' per-seed trajectories changed (and their
// spread-time distributions provably did not; see the KS tests).
class ExponentialBlock {
 public:
  explicit ExponentialBlock(std::size_t block = 128);

  // Next unit-rate exponential variate; refills from `rng` when empty.
  double next(Rng& rng) {
    if (pos_ == buf_.size()) refill(rng);
    return buf_[pos_++];
  }

 private:
  void refill(Rng& rng);

  std::vector<double> buf_;
  std::size_t pos_ = 0;
  std::size_t block_ = 0;
};

// Poisson(mean): Knuth's product method for small means, the PTRS
// transformed-rejection sampler (Hörmann 1993) for large means.
std::int64_t sample_poisson(Rng& rng, double mean);

// Geometric: number of Bernoulli(p) failures before the first success (>= 0).
std::int64_t sample_geometric(Rng& rng, double p);

// Binomial(n, p): inversion for small n*p, otherwise sums of Poisson-split
// recursion is unnecessary — we use straightforward BTPE-free inversion with a
// waiting-time trick for small p and direct Bernoulli summation fallback.
std::int64_t sample_binomial(Rng& rng, std::int64_t n, double p);

// Exact CDF helpers used to check the paper's tail bounds.

// Pr[Poisson(mean) <= k], computed by direct stable summation.
double poisson_cdf(double mean, std::int64_t k);

// ln Gamma via Stirling/Lanczos (thin wrapper over std::lgamma; kept here so
// callers do not depend on <cmath> details).
double log_gamma(double x);

}  // namespace rumor
