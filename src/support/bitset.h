// Flat fixed-size bitset over 64-bit words.
//
// The one informed-set representation, from the engines' hot path to
// SpreadResult and the InformedView handed to adaptive networks: one bit per
// node keeps the whole set of a million-node network in 128 KB (vs 1 MB for
// byte flags), so the membership tests on the simulation hot path stay in
// cache. Deliberately minimal — no iteration, no dynamic growth — because the
// engines only ever test, set and count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/contracts.h"

namespace rumor {

class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t n) { reset(n); }

  // Re-initializes to n cleared bits.
  void reset(std::size_t n) {
    n_ = n;
    words_.assign((n + 63) / 64, 0);
  }

  std::size_t size() const { return n_; }

  bool test(std::size_t i) const {
    DG_ASSERT(i < n_, "bit index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i) {
    DG_ASSERT(i < n_, "bit index out of range");
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  void clear(std::size_t i) {
    DG_ASSERT(i < n_, "bit index out of range");
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void set_all() {
    if (words_.empty()) return;
    for (auto& w : words_) w = ~std::uint64_t{0};
    // Keep the unused tail bits clear so count() stays exact.
    const std::size_t tail = n_ & 63;
    if (tail != 0) words_.back() = (std::uint64_t{1} << tail) - 1;
  }

  // The raw 64-bit words (bit i of the set is bit i%64 of word i/64): the
  // crossing-rate kernel (support/simd.h) reads its informed masks straight
  // from these, and the sparse-rebuild walk scans them with find-first-set.
  std::span<const std::uint64_t> words() const { return words_; }

  // Population count; O(n/64).
  std::size_t count() const {
    std::size_t c = 0;
    for (std::uint64_t w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  bool operator==(const Bitset&) const = default;

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rumor
