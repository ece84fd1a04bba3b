// Tracing wrappers for the traced benchmark pass.
//
// Everything here sits outside the library: a NetworkFactory wrapper times
// each per-trial factory call and hands back a forwarding DynamicNetwork
// decorator, which records a span around every graph_at call and closes the
// trial span when the engine drops the network. The decorator forwards every
// virtual (reports_deltas, last_delta and set_parallel_evolution included),
// so the traced run produces the same records as the untraced one; the
// benchmark checks that by fingerprint.
//
// Spans stay in memory (one vector per trial, merged under a lock when the
// trial ends) and are written out once the run is over.
//
// The decorator can also capture one trial's topology sequence (the first
// snapshot, then every change-point's delta and informed set) up to a byte
// budget. Capturing is excluded from the trial's span, and the replays that
// consume the capture run after the timed section (replay.h).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "dynamic/dynamic_network.h"
#include "support/bitset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One timed interval. Times are seconds since the session origin; `parent`
// indexes the enclosing span of the same trial (-1 for the trial span).
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int trial = -1;
  int thread = -1;
};

// One trial's topology sequence, as the replays need it.
struct Capture {
  struct Step {
    std::vector<rumor::Edge> removed;
    std::vector<rumor::Edge> added;
    rumor::Bitset informed;
    std::int64_t informed_count = 0;
  };
  rumor::NodeId n = 0;
  std::vector<rumor::Edge> base;  // the first snapshot's edges
  rumor::Bitset base_informed;
  std::int64_t base_informed_count = 0;
  std::vector<Step> steps;  // consecutive change-points after the first snapshot
  std::size_t bytes = 0;
  bool complete = true;  // false when the budget or a missing delta cut it short
};

// Per-trial totals, summed over the traced pass.
struct TrialTotals {
  double factory_s = 0.0;
  double graph_at_s = 0.0;
  double excluded_s = 0.0;  // capture copies, removed from trial spans and wall
  std::int64_t graph_at_calls = 0;
  std::int64_t change_points = 0;
  std::int64_t changed_edges = 0;
  std::int64_t deltas_reported = 0;
};

class TraceSession {
 public:
  // The first trial to start captures its topology sequence until
  // `capture_budget_bytes` are held.
  TraceSession(Clock::time_point origin, std::size_t capture_budget_bytes);

  // Wraps `inner` so every network it builds is traced.
  rumor::NetworkFactory wrap(rumor::NetworkFactory inner);

  double now() const { return seconds_between(origin_, Clock::now()); }

  // Valid once every traced network has been destroyed.
  const std::vector<Span>& spans() const { return spans_; }
  const TrialTotals& totals() const { return totals_; }
  const Capture& capture() const { return capture_; }

  // Chrome trace-event JSON of every span (opens in Perfetto).
  void write_chrome_trace(const std::string& path) const;

 private:
  friend class TracingNetwork;

  int thread_index();
  bool claim_capture() { return !capture_claimed_.exchange(true); }
  void finish_trial(std::vector<Span>& spans, const TrialTotals& totals);

  const Clock::time_point origin_;
  const std::size_t capture_budget_;
  std::atomic<bool> capture_claimed_{false};
  std::atomic<int> next_trial_{0};
  Capture capture_;  // written only by the one trial that claimed it

  std::mutex mutex_;  // guards everything below
  std::vector<std::thread::id> threads_;
  std::vector<Span> spans_;
  TrialTotals totals_;
};

}  // namespace perfbench
