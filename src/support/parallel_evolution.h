// The parallel-for an engine lends to a dynamic family for its per-step
// evolution, and that family's TopologyBuilder for its tiled delta merge.
//
// run() invokes fn(task) once for every task in [0, tasks), in any order and
// on any threads. Every user makes its work a pure function of the task index
// (the tiled counter-based RNG scheme and the merge weave's precomputed
// output ranges — see docs/ARCHITECTURE.md), so lending or withholding a pool
// never changes a graph sequence. It lives below graph/ so the builder and
// the families take the one interface.
#pragma once

#include <cstdint>
#include <functional>

namespace rumor {

class ParallelEvolution {
 public:
  virtual ~ParallelEvolution() = default;
  virtual void run(std::int64_t tasks, const std::function<void(std::int64_t)>& fn) = 0;
};

}  // namespace rumor
