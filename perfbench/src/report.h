// What one benchmark run hands back to perfbench/run.py: named metrics with
// units, the failures counted against the attempted operations, free-form
// notes, and the cells run.py cross-checks against `rumor_cli fingerprint`.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "stats/summary.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One experiment cell and the fingerprint the benchmark computed for it.
struct CellRecord {
  std::string scenario;
  std::vector<std::pair<std::string, std::string>> params;
  double clock_rate = 1.0;
  int trials = 0;
  std::uint64_t seed = 1;
  std::string sha256;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<CellRecord> cells;
  std::vector<std::string> failures;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& text) { notes.emplace_back(key, text); }
  // One checked operation; a false `ok` counts it as failed with `what`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  // A failure of an operation already counted in `attempted`.
  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }

  void write_json(std::ostream& os) const;
};

// The highest of the standard percentiles with at least ten samples beyond
// it, as {label, value}; {"", 0} when there are fewer than ten samples.
std::pair<std::string, double> tail_percentile(const rumor::SampleSet& samples);

// Resident-set high-water mark since the last reset_peak_rss(), in MiB
// (VmHWM; the process-lifetime getrusage peak where VmHWM cannot be reset).
// Resetting between batches lets a run report the median batch peak, which a
// one-off allocator spike cannot move.
void reset_peak_rss();
double peak_rss_mb();

}  // namespace perfbench
