#include "exec/in_process_backend.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_workspace.h"
#include "core/trial_pool.h"
#include "support/contracts.h"

namespace rumor {

namespace {

constexpr std::uint64_t kSplitmixGolden = 0x9e3779b97f4a7c15ULL;

// Executes one trial end to end (engine run + bound-crossing continuation).
SpreadResult run_one_trial(const NetworkFactory& factory, const RunnerOptions& options,
                           std::uint64_t net_seed, std::uint64_t engine_seed,
                           EngineWorkspace* workspace) {
  auto net = factory(net_seed);
  DG_REQUIRE(net != nullptr, "factory returned a null network");
  Rng rng(engine_seed);

  const NodeId source = options.source >= 0 ? options.source : net->suggested_source();

  std::unique_ptr<BoundTracker> tracker;
  if (options.track_bounds) {
    tracker = std::make_unique<BoundTracker>(net->node_count(), options.bound_c);
  }

  SpreadResult result;
  switch (options.engine) {
    case EngineKind::async_jump:
    case EngineKind::async_tick: {
      AsyncOptions async;
      async.protocol = options.protocol;
      async.clock_rate = options.clock_rate;
      async.time_limit = options.time_limit;
      async.bound_tracker = tracker.get();
      async.transmission_failure_prob = options.transmission_failure_prob;
      async.workspace = workspace;
      result = options.engine == EngineKind::async_jump
                   ? run_async_jump(*net, source, rng, async)
                   : run_async_tick(*net, source, rng, async);
      break;
    }
    case EngineKind::sync_rounds: {
      SyncOptions sync;
      sync.protocol = options.protocol;
      sync.round_limit = options.round_limit;
      sync.bound_tracker = tracker.get();
      sync.transmission_failure_prob = options.transmission_failure_prob;
      result = run_sync(*net, source, rng, sync);
      break;
    }
    case EngineKind::flooding: {
      FloodingOptions flood;
      flood.round_limit = options.round_limit;
      result = run_flooding(*net, source, flood);
      break;
    }
  }

  // When spreading finished before a threshold crossed, continue the
  // trajectory (everyone informed; adaptive families freeze or rotate) to
  // find where the paper's bound would have predicted completion.
  if (tracker != nullptr && result.completed &&
      (tracker->theorem11_crossing() < 0 || tracker->theorem13_crossing() < 0)) {
    const NodeId n = net->node_count();
    std::vector<std::uint8_t> all(static_cast<std::size_t>(n), 1);
    std::int64_t count = n;
    const InformedView done(&all, &count);
    std::int64_t t = tracker->steps();
    const std::int64_t cap = t + options.bound_continuation_cap;
    while ((tracker->theorem11_crossing() < 0 || tracker->theorem13_crossing() < 0) &&
           t < cap) {
      net->graph_at(t, done);
      tracker->on_step(net->current_profile());
      ++t;
    }
    result.theorem11_crossing = tracker->theorem11_crossing();
    result.theorem13_crossing = tracker->theorem13_crossing();
  }
  return result;
}

}  // namespace

std::pair<std::uint64_t, std::uint64_t> trial_seeds(std::uint64_t base, int trial) {
  std::uint64_t state = base + 2 * static_cast<std::uint64_t>(trial) * kSplitmixGolden;
  const std::uint64_t net_seed = splitmix64(state);
  const std::uint64_t engine_seed = splitmix64(state);
  return {net_seed, engine_seed};
}

RunnerReport run_trials(const NetworkFactory& factory, const RunnerOptions& options) {
  DG_REQUIRE(options.trials > 0, "need at least one trial");
  DG_REQUIRE(options.threads >= 1, "need at least one worker thread");
  DG_REQUIRE(options.threads <= TrialPool::kMaxThreads,
             "threads=" + std::to_string(options.threads) + " exceeds the runner cap of " +
                 std::to_string(TrialPool::kMaxThreads) +
                 "; trial parallelism tops out at the trial count and surplus threads only "
                 "feed intra-trial rate rebuilds, so values this large are a misconfiguration");
  DG_REQUIRE(options.trial_offset >= 0, "trial_offset must be non-negative");

  // Thread-allocation policy: never more workers than trials (the clamp);
  // surplus threads become intra-trial rebuild parallelism. Either way the
  // results are bit-identical to threads=1 — tiled rebuilds and the chunked
  // in-order aggregation below are both value-preserving.
  const int workers = std::min(options.threads, options.trials);
  const int rebuild_threads = std::max(1, options.threads / workers);
  const int chunk =
      options.chunk_trials > 0 ? options.chunk_trials : std::max(4 * workers, 64);

  // One reusable workspace per worker (unique_ptr: a workspace owns an arena
  // and is intentionally immovable).
  std::vector<std::unique_ptr<EngineWorkspace>> workspaces(
      static_cast<std::size_t>(workers));
  for (auto& ws : workspaces) {
    ws = std::make_unique<EngineWorkspace>();
    ws->rebuild_threads = rebuild_threads;
  }

  RunnerReport report;
  report.trials = options.trials;
  if (options.keep_per_trial) report.per_trial.reserve(static_cast<std::size_t>(options.trials));

  std::vector<SpreadResult> chunk_results(static_cast<std::size_t>(
      std::min(chunk, options.trials)));
  for (int chunk_begin = 0; chunk_begin < options.trials; chunk_begin += chunk) {
    const int chunk_end = std::min(chunk_begin + chunk, options.trials);
    const int chunk_size = chunk_end - chunk_begin;

    TrialPool::shared().run(
        chunk_size, workers, /*chunk=*/1, [&](std::int64_t task, int worker) {
          // Seeds come from the *global* trial index, so a batch started at
          // trial_offset reproduces that slice of the full run.
          const int trial = options.trial_offset + chunk_begin + static_cast<int>(task);
          const auto [net_seed, engine_seed] = trial_seeds(options.seed, trial);
          chunk_results[static_cast<std::size_t>(task)] = run_one_trial(
              factory, options, net_seed, engine_seed,
              workspaces[static_cast<std::size_t>(worker)].get());
        });

    // Aggregate and stream this chunk in trial order on the calling thread;
    // results not explicitly retained are dropped here, which bounds peak
    // memory at O(chunk · n) instead of O(trials · n).
    for (int i = 0; i < chunk_size; ++i) {
      SpreadResult& result = chunk_results[static_cast<std::size_t>(i)];
      if (result.completed) {
        ++report.completed;
        report.spread_time.add(result.spread_time);
        report.informative_contacts.add(static_cast<double>(result.informative_contacts));
      }
      if (result.theorem11_crossing >= 0)
        report.theorem11_crossing.add(static_cast<double>(result.theorem11_crossing));
      if (result.theorem13_crossing >= 0)
        report.theorem13_crossing.add(static_cast<double>(result.theorem13_crossing));
      if (options.trial_sink)
        options.trial_sink(options.trial_offset + chunk_begin + i, result);
      if (options.keep_per_trial) {
        report.per_trial.push_back(std::move(result));
      }
      result = SpreadResult{};  // release flags/trace memory before the next chunk
    }
    if (options.progress) options.progress(chunk_end, options.trials);
  }
  return report;
}

}  // namespace rumor
