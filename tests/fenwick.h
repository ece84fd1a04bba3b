// Fenwick (binary indexed) tree over non-negative double weights with
// O(log n) point update, prefix sum, and inverse-CDF sampling.
//
// A test oracle: the jump engine's rate table (stats/block_rates.h) must
// answer every total and sample query the way this tree does, and
// test_block_rates checks it against this tree on random workloads.
#pragma once

#include <cstddef>
#include <vector>

#include "support/contracts.h"

namespace rumor {

class FenwickTree {
 public:
  explicit FenwickTree(std::size_t size = 0) { reset(size); }

  // Re-initializes to `size` zero weights.
  void reset(std::size_t size) {
    n_ = size;
    tree_.assign(size + 1, 0.0);
    values_.assign(size, 0.0);
  }

  // Builds from an explicit weight vector in O(n).
  void assign(const std::vector<double>& weights) {
    n_ = weights.size();
    values_ = weights;
    tree_.assign(n_ + 1, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      DG_REQUIRE(weights[i] >= 0.0, "Fenwick weights must be non-negative");
      tree_[i + 1] += weights[i];
      const std::size_t parent = (i + 1) + ((i + 1) & (~i));  // i+1 + lowbit(i+1)
      if (parent <= n_) tree_[parent] += tree_[i + 1];
    }
  }

  std::size_t size() const { return n_; }

  double value(std::size_t i) const {
    DG_REQUIRE(i < n_, "Fenwick index out of range");
    return values_[i];
  }

  // Sets the weight at index i.
  void set(std::size_t i, double w) {
    DG_REQUIRE(i < n_, "Fenwick index out of range");
    DG_REQUIRE(w >= 0.0, "Fenwick weights must be non-negative");
    add(i, w - values_[i]);
  }

  // Adds delta to the weight at index i (result must stay >= 0 modulo epsilon).
  void add(std::size_t i, double delta) {
    DG_REQUIRE(i < n_, "Fenwick index out of range");
    values_[i] += delta;
    if (values_[i] < 0.0) values_[i] = 0.0;  // clamp accumulated float error
    for (std::size_t j = i + 1; j <= n_; j += j & (~j + 1)) tree_[j] += delta;
  }

  // Sum of weights at indices [0, i).
  double prefix_sum(std::size_t i) const {
    DG_REQUIRE(i <= n_, "Fenwick prefix bound out of range");
    double s = 0.0;
    for (std::size_t j = i; j > 0; j -= j & (~j + 1)) s += tree_[j];
    return s;
  }

  double total() const { return prefix_sum(n_); }

  // Returns the smallest index i such that prefix_sum(i+1) > target, i.e. the
  // index selected by inverse-CDF sampling with `target` uniform on
  // [0, total()). Indices with zero weight are never returned for in-range
  // targets; if floating-point rounding pushes the target past the last
  // weight, the last positive-weight index is returned.
  std::size_t sample(double target) const {
    DG_REQUIRE(target >= 0.0, "sampling target must be non-negative");
    std::size_t pos = 0;
    std::size_t mask = highest_power_of_two(n_);
    double remaining = target;
    while (mask > 0) {
      const std::size_t next = pos + mask;
      if (next <= n_ && tree_[next] <= remaining) {
        remaining -= tree_[next];
        pos = next;
      }
      mask >>= 1;
    }
    if (pos >= n_ || values_[pos] <= 0.0) {
      // Rounding spill-over: fall back to the last index with positive weight.
      std::size_t i = pos < n_ ? pos : n_;
      while (i > 0) {
        --i;
        if (values_[i] > 0.0) return i;
      }
      DG_ASSERT(false, "sampled from an all-zero Fenwick tree");
    }
    return pos;
  }

 private:
  static std::size_t highest_power_of_two(std::size_t n) {
    std::size_t p = 1;
    while (p * 2 <= n) p *= 2;
    return n == 0 ? 0 : p;
  }

  std::size_t n_ = 0;
  std::vector<double> tree_;    // 1-based implicit binary indexed tree
  std::vector<double> values_;  // raw weights, for value() and set()
};

}  // namespace rumor
