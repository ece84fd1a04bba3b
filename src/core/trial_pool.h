// Persistent worker pool with chunked self-scheduling ("work stealing" off a
// shared atomic cursor).
//
// The fork-join loop this replaces re-spawned `threads` OS threads on every
// run_trials call and striped trials statically across them, so one slow
// trial (an adversarial change-point burst) idled every other worker. A
// TrialPool parks its helpers on a condition variable between jobs, grabs
// work in index chunks from a shared cursor (workers that finish early steal
// the remaining range), and grows lazily to the largest worker count ever
// requested. Determinism is the caller's job and is easy: tasks are
// identified by index, so output written to index-addressed slots is
// schedule-independent.
//
// Two usage tiers share this class:
//  * exec/in_process_backend.cpp (the trial loop behind core/runner.h's
//    run_trials) keeps one process-wide shared() pool for trial-level
//    parallelism;
//  * core/engine_workspace.h gives each worker a private pool for tiled rate
//    rebuilds inside a single large trial (nested parallelism without the
//    shared pool deadlocking on itself — run() is not reentrant).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rumor {

class TrialPool {
 public:
  // Upper bound on workers per run; requests beyond it are a configuration
  // error surfaced by the runner, not silently clamped.
  static constexpr int kMaxThreads = 512;

  TrialPool() = default;
  ~TrialPool();

  TrialPool(const TrialPool&) = delete;
  TrialPool& operator=(const TrialPool&) = delete;

  // Process-wide pool used by run_trials; created on first use, helpers
  // joined at process exit.
  static TrialPool& shared();

  // Runs fn(task, worker) for every task in [0, tasks), on min(workers,
  // tasks) workers (the calling thread participates as worker 0). Tasks are
  // claimed in chunks of `chunk` consecutive indices; pass 1 for heavy
  // uneven tasks, larger chunks for cheap uniform ones. Worker ids are dense
  // in [0, active workers), so callers can maintain per-worker state arrays.
  // The first exception thrown by fn cancels the remaining tasks and is
  // rethrown on the calling thread. Concurrent run() calls from different
  // threads serialize; a nested run() from inside one of this pool's own
  // jobs executes inline on the caller (identical results, no deadlock).
  void run(std::int64_t tasks, int workers, std::int64_t chunk,
           const std::function<void(std::int64_t task, int worker)>& fn);

  // Helpers currently parked (grows with the largest run() request). Takes
  // the pool mutex: a concurrent run() may be growing the helper vector, and
  // an unsynchronized size() read of a vector under reallocation is a data
  // race (caught by design review for the TSan leg, not by a test — the
  // racing window is a few instructions).
  int helper_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(helpers_.size());
  }

 private:
  struct Job;
  void ensure_helpers(int count);
  void helper_main(int helper_index);
  static void work(Job& job, int worker);

  std::vector<std::thread> helpers_;
  std::mutex run_mutex_;  // serializes whole run() calls from outside threads
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Job* job_ = nullptr;          // non-null while a run() is in flight
  std::uint64_t generation_ = 0;  // bumped per job so helpers wake exactly once
  bool shutdown_ = false;
};

}  // namespace rumor
