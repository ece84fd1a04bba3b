// Synchronous rumor spreading in dynamic networks (Section 6).
//
// The algorithm proceeds in rounds synchronized with the network dynamics:
// round t uses graph G(t). In a round every node calls a uniformly random
// neighbour; exchanges are evaluated against the *start-of-round* informed
// set ("any action is allowed to be taken at the beginning of each round"),
// so a node informed in round t relays only from round t+1 on. This is the
// semantics that makes Ts(G2) = n exact in Theorem 1.7(ii).
#pragma once

#include <cstdint>

#include "core/protocol.h"
#include "core/spread_result.h"
#include "dynamic/dynamic_network.h"
#include "stats/rng.h"

namespace rumor {

struct SyncOptions {
  Protocol protocol = Protocol::push_pull;
  std::int64_t round_limit = 1'000'000'000;
  bool record_trace = false;

  // Failure injection: each contact's exchange is lost independently with
  // this probability (lossy links, [14]).
  double transmission_failure_prob = 0.0;
};

// Returns SpreadResult with spread_time = number of rounds executed until all
// nodes were informed.
SpreadResult run_sync(DynamicNetwork& net, NodeId source, Rng& rng,
                      const SyncOptions& options = {});

struct FloodingOptions {
  std::int64_t round_limit = 1'000'000'000;
  bool record_trace = false;
};

// Flooding (related-work baseline): every informed node informs all its
// neighbours in each round.
SpreadResult run_flooding(DynamicNetwork& net, NodeId source,
                          const FloodingOptions& options = {});

}  // namespace rumor
