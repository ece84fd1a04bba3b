// Result of one simulated rumor-spreading run.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "support/bitset.h"

namespace rumor {

struct SpreadResult {
  // First time every node is informed: continuous time for the asynchronous
  // engines, number of rounds for the synchronous/flooding engines. When the
  // run hit its limit first, this is the limit and `completed` is false.
  double spread_time = 0.0;
  bool completed = false;

  std::int64_t informed_count = 0;

  // Contacts that transmitted the rumor to a previously uninformed node.
  std::int64_t informative_contacts = 0;
  // All contacts (tick and synchronous engines; the jump engine only ever
  // simulates informative ones and reports 0 here).
  std::int64_t total_contacts = 0;

  // How many times the exposed topology changed across integer steps.
  std::int64_t graph_changes = 0;

  // (time, informed count) after every new infection; filled when
  // record_trace is set.
  std::vector<std::pair<double, std::int64_t>> trace;

  // Final informed set, one bit per node, always filled: the engine's own
  // bitset, moved (sync, flooding) or copied out of the reused worker
  // workspace (async engines).
  Bitset informed;

  // Trajectory bound-crossing steps; set by the runner when it tracks bounds
  // (RunnerOptions::track_bounds), else -1.
  std::int64_t theorem11_crossing = -1;
  std::int64_t theorem13_crossing = -1;
};

}  // namespace rumor
