// perfbench — the repository benchmark's measuring half.
//
//   perfbench --workload NAME --seed S --seconds T --trace 0|1
//             [--scratch DIR]
//
// Runs one workload and prints one {"record":"perfbench",...} JSON line with
// every metric it measured (name, value, unit), the checks it made, and the
// cells perfbench/run.py cross-checks against `rumor_cli fingerprint`.
// run.py builds this binary, stamps the result with `rumor_cli hwinfo`, and
// prints the table and the final result line.
#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  o.threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--scratch") {
      o.scratch_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = parse(argc, argv);
    perfbench::Report report;
    if (perfbench::is_sim_workload(options.workload)) {
      report = perfbench::run_sim_workload(options);
    } else if (options.workload == "serve_mix") {
      report = perfbench::run_serve_mix(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "' (em_churn, em_trickle, torus_pool, serve_mix)");
    }
    report.write_json(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
