// The trial loop: chunked execution of one batch over the shared TrialPool.
//
// core/runner.h's run_trials() is implemented here, and it is the only way
// trials run. Trials run in chunks on the process-wide pool
// (core/trial_pool.h), per-trial seeds are derived by the counter-based
// trial_seeds() scheme below, results land in index-addressed slots, and
// each completed chunk is aggregated and streamed in trial order on the
// calling thread — so the report is bit-identical for any thread count,
// chunk size, or work-stealing schedule (docs/ARCHITECTURE.md, "The
// execution layer").
#pragma once

#include <cstdint>
#include <utility>

#include "core/runner.h"

namespace rumor {

// Counter-based per-trial seed streams. splitmix64 advances its state by a
// pure additive constant, so the i-th (net, engine) pair of the legacy
// sequential derivation is a closed-form function of (seed, i): jumping the
// state to seed + 2i·golden and mixing twice reproduces it bit for bit. That
// makes trial seeds O(1) to derive from any worker in any order, and lets a
// batch started at RunnerOptions::trial_offset B derive trial B + j's seeds
// without replaying trials 0..B-1. Every golden record captured under the
// original sequential scheme stays valid.
std::pair<std::uint64_t, std::uint64_t> trial_seeds(std::uint64_t base, int trial);

}  // namespace rumor
