// Reusable per-worker buffers for the simulation engines.
//
// One trial of the jump engine needs an informed bitset and the rate model's
// O(n) arrays (β/deg weights, the block-decomposed rate table that rebuilds
// write in place, sparse-gather and delta-path marks). A workspace owns them
// once per worker: the flat arrays are carved from a bump arena
// (support/arena.h) that reset() rewinds instead of freeing, and the
// bitset/rate table reuse their vector capacity across prepare() calls, so a
// worker that runs trial after trial of the same scenario performs zero
// steady-state heap allocation beyond the copy of the informed bitset each
// SpreadResult takes (n/8 bytes). The runner
// keeps one workspace per pool worker; an engine invoked without one falls
// back to a stack-local workspace, which makes the plumbing optional for
// tests and examples.
//
// Workspaces also carry the intra-trial parallelism budget: rebuild_threads
// (set by the runner's thread-allocation policy) and a lazily created private
// TrialPool for tiled rate rebuilds and tiled family evolution. Tiling never
// changes results — see "Scale tier" in docs/ARCHITECTURE.md for the
// bit-identity argument.
#pragma once

#include <memory>
#include <span>

#include "core/rate_model.h"
#include "core/trial_pool.h"
#include "graph/graph.h"
#include "support/arena.h"
#include "support/bitset.h"

namespace rumor {

struct EngineWorkspace {
  Arena arena;
  Bitset informed;
  RateModel rate_model;

  // Trial-level parallelism left over for rebuilds inside this worker's
  // trials; 1 = serial rebuilds.
  int rebuild_threads = 1;

  // Re-carves the arrays for an n-node trial. Spans from the previous trial
  // are invalidated; the arena reuses its chunks, so after the first call
  // with a given n this allocates nothing. The rate model's buffers are
  // carved separately by RateModel::begin_trial (jump engine only — the tick
  // engine keeps no rates).
  void prepare(NodeId n) {
    arena.reset();
    informed.reset(static_cast<std::size_t>(n));
  }

  // The private pool for tiled rebuilds, created on first use. Distinct from
  // TrialPool::shared() (which is busy running trials and is not reentrant).
  TrialPool& rebuild_pool() {
    if (rebuild_pool_ == nullptr) rebuild_pool_ = std::make_unique<TrialPool>();
    return *rebuild_pool_;
  }

 private:
  std::unique_ptr<TrialPool> rebuild_pool_;
};

}  // namespace rumor
