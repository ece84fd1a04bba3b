// Multi-trial experiment driver.
//
// The adaptive adversaries mutate as the rumor spreads, so every trial needs a
// fresh DynamicNetwork instance; the runner takes a factory, derives one seed
// per trial (deterministically from the base seed), runs the chosen engine,
// and aggregates spread times, bound crossings, and completion counts.
//
// run_trials() validates the options and runs the batch through the chunked
// TrialPool loop (implemented in src/exec/in_process_backend.cpp, whose
// header also exports the per-trial seed derivation). Per-trial seeds are
// counter-based (trial i's RNG streams are a pure function of (options.seed,
// trial_offset + i)), every result lands in an index-addressed slot, and
// aggregation walks completed work in trial order — so the report is
// bit-identical for any thread count, work-stealing schedule, or chunk size.
// Each pool worker owns an EngineWorkspace reused across its trials (zero
// steady-state allocation), and when there are more threads than trials the
// surplus is handed to the engines as intra-trial rebuild_threads for tiled
// parallel rate rebuilds.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/async_engine.h"
#include "core/sync_engine.h"
#include "stats/summary.h"

namespace rumor {

enum class EngineKind { async_jump, async_tick, sync_rounds, flooding };

std::string to_string(EngineKind k);

// Builds a fresh network for a trial; `seed` varies per trial.
using NetworkFactory = std::function<std::unique_ptr<DynamicNetwork>(std::uint64_t seed)>;

struct RunnerOptions {
  EngineKind engine = EngineKind::async_jump;
  Protocol protocol = Protocol::push_pull;
  double clock_rate = 1.0;
  double time_limit = 1e9;          // async engines
  std::int64_t round_limit = 1'000'000;  // sync/flooding engines
  int trials = 30;
  std::uint64_t seed = 1;
  bool track_bounds = false;  // attach a BoundTracker per trial
  double bound_c = 1.0;       // w.h.p. exponent for Theorem 1.1
  NodeId source = -1;         // -1: use the network's suggested_source()

  // When a run completes before a bound threshold crosses (the bound is
  // loose), the runner keeps stepping the (fully informed) network forward to
  // locate the crossing, so the reported T(G,c)/T_abs are always the genuine
  // trajectory values. This caps that continuation.
  std::int64_t bound_continuation_cap = 50'000'000;

  // Worker threads for trial execution. Results are bit-identical to the
  // serial run for the same seed. Values above `trials` are clamped to the
  // trial count (the surplus flows into intra-trial tiled rate rebuilds);
  // values above TrialPool::kMaxThreads are a configuration error and throw
  // with a message saying so.
  int threads = 1;

  // Passed through to the engines: every contact independently fails to
  // transmit with this probability (the lossy-links robustness setting).
  // Ignored by the flooding baseline, which has no randomized contacts.
  double transmission_failure_prob = 0.0;

  // Streaming consumer invoked once per trial, in trial order, as each chunk
  // of trials completes (on the calling thread). The result reference is
  // only valid during the call, so at most one chunk of full results is ever
  // resident; this is the one way to observe individual trials.
  std::function<void(int trial, const SpreadResult& result)> trial_sink;

  // Progress observer invoked after every completed chunk (on the calling
  // thread) with trials finished so far and the total; drivers map this to
  // ETA lines on stderr (`rumor_cli --progress`).
  std::function<void(int done, int total)> progress;

  // Trials per execution chunk; a chunk is dispatched to the pool, then
  // aggregated/streamed in trial order before the next chunk starts, so at
  // most `chunk` full SpreadResults are alive at once. 0 = auto
  // (max(4 x workers, 64)).
  int chunk_trials = 0;

  // Global index of this batch's first trial: seed derivation and
  // trial_sink labelling use trial_offset + local index, so a run split into
  // offset batches reproduces exactly the records of the full run.
  int trial_offset = 0;
};

struct RunnerReport {
  SampleSet spread_time;            // completed trials only
  SampleSet informative_contacts;   // completed trials only
  SampleSet theorem11_crossing;     // crossings observed before completion
  SampleSet theorem13_crossing;
  int trials = 0;
  int completed = 0;

  double completion_rate() const {
    return trials == 0 ? 0.0 : static_cast<double>(completed) / trials;
  }
};

RunnerReport run_trials(const NetworkFactory& factory, const RunnerOptions& options);

}  // namespace rumor
