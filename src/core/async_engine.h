// Asynchronous rumor-spreading engines (Definition 1 of the paper).
//
// Every node carries an exponential clock of rate `clock_rate` (β = 1 in the
// paper); on each tick the node calls a uniformly random neighbour in the
// currently exposed graph G(⌊τ⌋) and the pair exchanges the rumor according to
// the protocol. Two engines simulate the same process:
//
//  * run_async_tick — full fidelity. The superposition of the n clocks is a
//    rate-nβ Poisson process whose marks are uniform nodes, so the engine
//    samples every contact of every node. O(nβ·T) work; counts all contacts.
//
//  * run_async_jump — exact event-driven (Gillespie) simulation of the
//    informed-set process only. For a fixed topology and informed set I, an
//    uninformed node v becomes informed at rate
//        r(v) = Σ_{u ∈ N(v) ∩ I} [push: β/d_u] + [pull: β/d_v],
//    the race of independent exponentials over crossing edges (this is the
//    paper's λ(γ) restricted to v for push_pull). The engine keeps all r(v)
//    in a block-decomposed rate table (stats/block_rates.h) over the graph's
//    CSR view: informing a node updates each uninformed neighbour's rate in
//    O(1) with precomputed β/deg weights, the next infection is sampled by
//    hierarchical scan, and event times come from block-drawn unit
//    exponentials — because exponentials are memoryless the engine simply
//    resamples whenever it crosses an integer boundary where the adversary
//    may swap the graph. The informed-set trajectory has exactly the law of
//    the full process, at O((n + m)·(#topology changes + 1)) cost,
//    independent of T between changes. The tests validate the equivalence
//    with a two-sample KS test.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protocol.h"
#include "core/spread_result.h"
#include "dynamic/dynamic_network.h"
#include "stats/rng.h"

namespace rumor {

struct EngineWorkspace;

struct AsyncOptions {
  Protocol protocol = Protocol::push_pull;
  double clock_rate = 1.0;    // β: each node's Poisson tick rate
  double time_limit = 1e9;    // hard stop in continuous time
  bool record_trace = false;  // fill SpreadResult::trace

  // Additional nodes informed at time 0 alongside the source (e.g. Lemma 4.2
  // assumes every node of the cluster S_0 starts informed).
  std::vector<NodeId> extra_sources;

  // Failure injection: every contact independently fails to transmit with
  // this probability (lossy links; the robustness setting of [14]). In the
  // jump engine this is exact Poisson thinning — all informing rates scale by
  // (1 - p) — so the spread-time distribution is that of the lossy process.
  double transmission_failure_prob = 0.0;

  // Reusable per-worker buffers (core/engine_workspace.h). When null the
  // engine uses a private stack-local workspace; when set, the buffers (and
  // the workspace's rebuild_threads budget for tiled parallel rate rebuilds)
  // are reused across trials with zero steady-state allocation. Results are
  // bit-identical either way.
  EngineWorkspace* workspace = nullptr;
};

// Exact event-driven simulation; the engine of choice for experiments.
SpreadResult run_async_jump(DynamicNetwork& net, NodeId source, Rng& rng,
                            const AsyncOptions& options = {});

// Full-fidelity clock-by-clock simulation; counts every contact.
SpreadResult run_async_tick(DynamicNetwork& net, NodeId source, Rng& rng,
                            const AsyncOptions& options = {});

}  // namespace rumor
