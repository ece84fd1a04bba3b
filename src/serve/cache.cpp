#include "serve/cache.h"

#include <string_view>
#include <utility>

#include "scenarios/experiment.h"
#include "support/sha256.h"

namespace rumor {

std::string cache_key(const ReproManifest& m) {
  // One "name=value\n" line per compared field, in manifest_divergence's
  // order, so the serialization is injective (names disambiguate, '\n'
  // terminates values that themselves never contain newlines). The runner
  // columns hash their written spellings, exactly what manifest_divergence
  // compares; m.build, which it excludes, is absent.
  Sha256 hasher;
  const auto field = [&hasher](std::string_view name, const std::string& value) {
    hasher.update(name.data(), name.size());
    hasher.update("=", 1);
    hasher.update(value);
    hasher.update("\n", 1);
  };
  field("scenario", m.scenario);
  for (const auto& [name, value] : m.params) field("param:" + name, value);
  for (const auto& [name, spelling] : runner_column_spellings(m.runner)) field(name, spelling);
  return hasher.hex_digest();
}

std::size_t CachedCell::payload_bytes() const {
  std::size_t total = summary_line.size() + fingerprint.size();
  for (const std::string& line : trial_lines) total += line.size();
  return total;
}

ResultCache::ResultCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

std::shared_ptr<const CachedCell> ResultCache::find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_position);
  return it->second.cell;
}

std::shared_ptr<const CachedCell> ResultCache::insert(const std::string& key,
                                                      CachedCell cell) {
  auto shared = std::make_shared<const CachedCell>(std::move(cell));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second.cell->payload_bytes();
    bytes_ += shared->payload_bytes();
    it->second.cell = shared;
    lru_.splice(lru_.begin(), lru_, it->second.lru_position);
  } else {
    lru_.push_front(key);
    bytes_ += shared->payload_bytes();
    entries_.emplace(key, Entry{shared, lru_.begin()});
    ++stats_.insertions;
  }
  evict_to_budget_locked();
  return shared;
}

void ResultCache::evict_to_budget_locked() {
  // Never evict the entry just touched (front): an oversized cell is kept
  // alone rather than thrashing on its own insertion.
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    const auto it = entries_.find(victim);
    bytes_ -= it->second.cell->payload_bytes();
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

}  // namespace rumor
