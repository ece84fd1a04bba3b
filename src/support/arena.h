// Chunked bump allocator for per-worker simulation buffers.
//
// The scale tier runs thousands of trials per sweep; allocating the engines'
// O(n) working arrays (rate tables, degree weights) from the heap on every
// trial dominates small-n sweeps and fragments large-n ones. An Arena hands
// out aligned spans by bumping a cursor through geometrically growing chunks;
// reset() rewinds the cursor but keeps every chunk, so a worker that runs the
// same-shaped trial repeatedly reaches zero steady-state allocation after the
// first trial. Spans are only valid until the next reset(); the engine
// workspaces (core/engine_workspace.h) re-carve them at the start of every
// run, which is what makes the lifetimes trivially correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "support/contracts.h"

namespace rumor {

class Arena {
 public:
  explicit Arena(std::size_t first_chunk_bytes = 1 << 16)
      : next_chunk_bytes_(first_chunk_bytes) {
    DG_REQUIRE(first_chunk_bytes > 0, "arena chunk size must be positive");
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Raw aligned allocation; alignment must be a power of two (chunks come
  // from operator new[], so anything up to alignof(std::max_align_t) works).
  void* allocate(std::size_t bytes, std::size_t align) {
    DG_REQUIRE(align > 0 && (align & (align - 1)) == 0,
               "arena alignment must be a power of two");
    DG_REQUIRE(align <= alignof(std::max_align_t), "over-aligned arena allocation");
    if (bytes == 0) bytes = 1;
    if (!chunks_.empty()) {
      const std::size_t aligned = (used_in_chunk_ + align - 1) & ~(align - 1);
      if (aligned + bytes <= chunks_[chunk_].size) return take(aligned, bytes);
    }
    // Advance to the next chunk, reserving a bigger one when none fits.
    const std::size_t next = chunks_.empty() ? 0 : chunk_ + 1;
    if (next >= chunks_.size() || chunks_[next].size < bytes) {
      std::size_t size = next_chunk_bytes_;
      while (size < bytes) size *= 2;
      next_chunk_bytes_ = size * 2;
      // Default-initialized: a chunk's pages stay untouched (and, for a
      // large one, unmapped) until a span is written.
      chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(next),
                     Chunk{std::make_unique_for_overwrite<std::byte[]>(size), size});
    }
    chunk_ = next;
    used_in_chunk_ = 0;
    return take(0, bytes);
  }

  // Typed span of `count` uninitialized elements. Restricted to trivial
  // types: the arena never runs constructors or destructors, and callers
  // overwrite every element before reading (the engines rebuild their arrays
  // from scratch each trial).
  template <typename T>
  std::span<T> make_span(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T> &&
                      std::is_trivially_default_constructible_v<T>,
                  "arenas only hold trivial types");
    return {static_cast<T*>(allocate(count * sizeof(T), alignof(T))), count};
  }

  // Rewinds the cursor to the first chunk, keeping all reserved chunks. Every
  // previously returned span is invalidated.
  void reset() {
    chunk_ = 0;
    used_in_chunk_ = 0;
    used_total_ = 0;
  }

  // Frees every chunk (the arena stays usable).
  void release() {
    chunks_.clear();
    chunks_.shrink_to_fit();
    reset();
  }

  // Telemetry: total bytes reserved from the heap, bytes live since the last
  // reset, and the high-water mark across the arena's lifetime.
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  std::size_t bytes_used() const { return used_total_; }
  std::size_t high_water() const { return high_water_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* take(std::size_t offset, std::size_t bytes) {
    void* p = chunks_[chunk_].data.get() + offset;
    used_in_chunk_ = offset + bytes;
    used_total_ += bytes;
    if (used_total_ > high_water_) high_water_ = used_total_;
    return p;
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;           // index of the chunk being bumped
  std::size_t used_in_chunk_ = 0;   // cursor within chunks_[chunk_]
  std::size_t used_total_ = 0;
  std::size_t high_water_ = 0;
  std::size_t next_chunk_bytes_;
};

}  // namespace rumor
