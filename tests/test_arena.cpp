// Tests for the bump allocator behind the engine workspaces.
#include <gtest/gtest.h>

#include <cstdint>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>

#include <vector>
#endif

#include "support/arena.h"

namespace rumor {
namespace {

TEST(Arena, HandsOutDisjointAlignedSpans) {
  Arena arena;
  const auto a = arena.make_span<double>(100);
  const auto b = arena.make_span<std::int32_t>(7);
  const auto c = arena.make_span<double>(50);
  ASSERT_EQ(a.size(), 100u);
  ASSERT_EQ(b.size(), 7u);
  ASSERT_EQ(c.size(), 50u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % alignof(double), 0u);
  // Disjoint: writing every element of each span leaves the others intact.
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 1.0;
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = -2;
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = 3.0;
  for (double v : a) EXPECT_EQ(v, 1.0);
  for (std::int32_t v : b) EXPECT_EQ(v, -2);
  for (double v : c) EXPECT_EQ(v, 3.0);
}

TEST(Arena, ResetReusesTheSameStorage) {
  Arena arena;
  const auto first = arena.make_span<double>(1000);
  const void* p = first.data();
  const std::size_t reserved = arena.bytes_reserved();
  for (int round = 0; round < 10; ++round) {
    arena.reset();
    const auto again = arena.make_span<double>(1000);
    EXPECT_EQ(static_cast<const void*>(again.data()), p);
  }
  // Zero steady-state allocation: same-shaped epochs reserve nothing new.
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(Arena, GrowsAcrossChunksAndTracksTelemetry) {
  Arena arena(64);  // tiny first chunk forces growth
  EXPECT_EQ(arena.bytes_used(), 0u);
  const auto big = arena.make_span<double>(10000);
  ASSERT_EQ(big.size(), 10000u);
  big[0] = 1.0;
  big[9999] = 2.0;
  EXPECT_GE(arena.bytes_reserved(), 10000u * sizeof(double));
  EXPECT_EQ(arena.bytes_used(), 10000u * sizeof(double));
  EXPECT_EQ(arena.high_water(), arena.bytes_used());

  // High water persists across reset; used rewinds.
  const std::size_t high = arena.high_water();
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.high_water(), high);

  arena.release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  const auto after = arena.make_span<double>(10);
  EXPECT_EQ(after.size(), 10u);
}

TEST(Arena, ManySmallAllocationsSpanChunks) {
  Arena arena(128);
  std::vector<std::span<std::uint64_t>> spans;
  for (int i = 0; i < 100; ++i) spans.push_back(arena.make_span<std::uint64_t>(16));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (auto& v : spans[i]) v = i;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (auto v : spans[i]) EXPECT_EQ(v, i);
  }
}

TEST(Arena, ZeroSizeSpanIsValid) {
  Arena arena;
  const auto empty = arena.make_span<double>(0);
  EXPECT_EQ(empty.size(), 0u);
}

#ifdef __linux__
TEST(Arena, ReservedChunksStayUntouchedUntilWritten) {
  // A 64 MiB chunk is above any malloc mmap threshold, so it arrives as fresh
  // zero pages that become resident only when written. A chunk the arena
  // filled itself would be resident in full before any span is used.
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  Arena arena;
  const auto span = arena.make_span<std::byte>(kBytes);
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t begin =
      (reinterpret_cast<std::uintptr_t>(span.data()) + page - 1) & ~(page - 1);
  const std::uintptr_t end = (reinterpret_cast<std::uintptr_t>(span.data()) + kBytes) & ~(page - 1);
  std::vector<unsigned char> resident((end - begin) / page);
  ASSERT_EQ(mincore(reinterpret_cast<void*>(begin), end - begin, resident.data()), 0);
  std::size_t touched = 0;
  for (const unsigned char flags : resident) touched += flags & 1u;
  EXPECT_LE(touched, resident.size() / 100) << touched << " of " << resident.size()
                                            << " pages resident before any write";
}
#endif

TEST(Arena, RejectsBadAlignment) {
  Arena arena;
  EXPECT_THROW(arena.allocate(8, 3), std::invalid_argument);
  EXPECT_THROW(arena.allocate(8, 0), std::invalid_argument);
}

}  // namespace
}  // namespace rumor
