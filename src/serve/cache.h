// Manifest-keyed result cache for the rumor_serve daemon.
//
// The determinism contract makes a cell's record bytes a pure function of
// its reproducibility manifest, so the manifest is a sound cache key: serving
// the stored bytes for a repeated manifest is indistinguishable from
// re-simulating. cache_key() hashes exactly the fields
// repro/resolver.h's manifest_divergence compares — scenario, resolved
// params, and every runner column of scenarios/experiment.h's list by its
// written spelling (the record-determining options and the execution
// topology) — and excludes exactly the field it excludes: `build`, the
// provenance column that legitimately differs between the recording and the
// serving binary. Two manifests with an empty divergence always share a key;
// any divergence manifest_divergence would name yields distinct keys
// (tests/test_serve.cpp pins both directions). The server additionally
// normalizes the execution topology before keying (serve/protocol.h), so
// client-side topology noise cannot fragment the cache.
//
// A cached cell is the complete recorded response body: the trial record
// lines byte-for-byte, the closing summary line, and the SHA-256 cell
// fingerprint — i.e. a RecordedCell the repro harness can replay, which is
// what makes cache hits independently verifiable via `rumor_cli replay`.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "repro/manifest.h"

namespace rumor {

// 64-hex-char SHA-256 over the canonical field serialization described above.
std::string cache_key(const ReproManifest& manifest);

struct CachedCell {
  std::vector<std::string> trial_lines;  // exact record bytes, no newline
  std::string summary_line;              // closing summary with its manifest
  std::string fingerprint;               // SHA-256 of the canonical stream

  std::size_t payload_bytes() const;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

// Thread-safe LRU cache bounded by total payload bytes. Entries are shared
// pointers so a hit being streamed to a slow client survives a concurrent
// eviction.
class ResultCache {
 public:
  explicit ResultCache(std::size_t max_bytes);

  // Counts a hit or miss; nullptr on miss.
  std::shared_ptr<const CachedCell> find(const std::string& key);

  // Inserts (or refreshes) the cell, then evicts least-recently-used entries
  // until the byte budget holds. A cell larger than the whole budget is
  // stored alone — serving an oversized sweep from cache still beats
  // re-simulating it, and the next insertion evicts it. Returns the stored
  // cell (without touching the hit/miss counters) so a miss path can stream
  // what it just computed.
  std::shared_ptr<const CachedCell> insert(const std::string& key, CachedCell cell);

  CacheStats stats() const;
  std::size_t entries() const;
  std::size_t bytes() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedCell> cell;
    std::list<std::string>::iterator lru_position;
  };

  void evict_to_budget_locked();

  const std::size_t max_bytes_;
  mutable std::mutex mutex_;
  std::list<std::string> lru_;  // most recently used at the front
  std::unordered_map<std::string, Entry> entries_;
  std::size_t bytes_ = 0;
  CacheStats stats_;
};

}  // namespace rumor
