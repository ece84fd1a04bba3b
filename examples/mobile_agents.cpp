// Mobile wireless network — the paper's second motivating scenario (and the
// setting of related work [22, 20]).
//
// Agents random-walk on the unit torus; two agents can exchange data when
// within radio range. The proximity graph is frequently disconnected, which
// is exactly when the ⌈Φ(G(t))⌉ indicator of Theorem 1.3 nulls a step. We
// sweep the radio range and report spread latency, the fraction of connected
// steps, and the informed-count trace of one run.
//
//   $ ./mobile_agents [--agents 256] [--trials 10]
#include <iostream>
#include <memory>

#include "core/async_engine.h"
#include "core/runner.h"
#include "dynamic/mobile_geometric.h"
#include "graph/connectivity.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace rumor;
  const Cli cli(argc, argv);
  const NodeId agents = static_cast<NodeId>(cli.get_int("agents", 256));
  const int trials = static_cast<int>(cli.get_int("trials", 10));

  std::cout << "mobile agents on the unit torus: " << agents
            << " agents, step 0.02 per unit time\n\n";

  Table table({"radio range", "spread mean", "spread p95", "connected steps %"});
  for (double radius : {0.05, 0.08, 0.12, 0.2}) {
    RunnerOptions opt;
    opt.trials = trials;
    opt.time_limit = 50000.0;
    const auto report = run_trials(
        [=](std::uint64_t seed) {
          return std::make_unique<MobileGeometricNetwork>(agents, radius, 0.02, seed);
        },
        opt);

    // Estimate connectivity of the exposed graphs along one fresh trajectory.
    MobileGeometricNetwork probe(agents, radius, 0.02, 99);
    Bitset flags(static_cast<std::size_t>(agents));
    std::int64_t count = 0;
    const InformedView view(&flags, &count);
    int connected = 0;
    const int probe_steps = 50;
    for (int t = 0; t < probe_steps; ++t)
      if (is_connected(probe.graph_at(t, view))) ++connected;

    table.add_row({Table::cell(radius, 3),
                   report.completed > 0 ? Table::cell(report.spread_time.mean(), 4)
                                        : ">limit",
                   report.completed > 0 ? Table::cell(report.spread_time.quantile(0.95), 4)
                                        : ">limit",
                   Table::cell(100.0 * connected / probe_steps, 3)});
  }
  table.print(std::cout);

  // One run with a trace, to show the bursty progress typical of intermittent
  // connectivity (progress stalls while the informed cluster is isolated).
  std::cout << "\ninformed-count trace of one run (radius 0.08):\n";
  MobileGeometricNetwork net(agents, 0.08, 0.02, 5);
  Rng rng(17);
  AsyncOptions opt;
  opt.record_trace = true;
  opt.time_limit = 50000.0;
  const auto r = run_async_jump(net, 0, rng, opt);
  const std::size_t stride = std::max<std::size_t>(1, r.trace.size() / 12);
  for (std::size_t i = 0; i < r.trace.size(); i += stride) {
    std::cout << "  t = " << Table::cell(r.trace[i].first, 5) << "  informed = "
              << r.trace[i].second << "\n";
  }
  std::cout << "  done at t = " << Table::cell(r.spread_time, 5) << " ("
            << (r.completed ? "complete" : "hit limit") << ")\n";
  return 0;
}
