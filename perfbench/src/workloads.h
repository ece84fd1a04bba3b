// The benchmark's workloads. Each entry point runs one workload for about
// `seconds` of measured time and returns its metrics and checks.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir = ".";  // trace files and the serve socket go here
  int threads = 1;                // the N of the thread axis: min(4, hardware threads)
};

// em_churn, em_trickle, torus_pool; returns false for an unknown name.
bool is_sim_workload(const std::string& name);
Report run_sim_workload(const Options& options);

Report run_serve_mix(const Options& options);

}  // namespace perfbench
