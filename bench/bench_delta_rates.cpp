// Delta ablation — measures the two change-point paths of the jump engine's
// RateModel against each other on a near-stationary edge-Markovian family:
// the incremental refresh (forced via DeltaPolicy::always) vs the tiled full
// rebuild (DeltaPolicy::never), across mean degree {8, 21}, informed start
// {1 node, n/2, n − n/64} and per-step churn rates. Both paths are priced in
// the unit RateModel prices them in, adjacency entries read: the delta path
// Σ over its candidates of (1 + deg), the rebuild n plus its gather volume.
// The worst ratio of their measured ns per read is what
// RateModel::kDeltaCostFactor must cover; the verdict fails when it does not.
// Re-run this bench whenever the refresh or rebuild loops change shape.
#include <algorithm>
#include <iostream>
#include <optional>

#include "common/bench_util.h"
#include "core/rate_model.h"
#include "dynamic/edge_markovian.h"
#include "stats/rng.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace rumor;
  const Cli cli(argc, argv);
  const NodeId n = static_cast<NodeId>(cli.get_int("n", 1 << 17));
  const int steps = static_cast<int>(cli.get_int("steps", 40));

  bench::banner("DELTA", "incremental change-point tier",
                "delta-path refresh vs tiled full rebuild at matched change-points, both "
                "priced in adjacency reads; the worst ns-per-read ratio bounds "
                "RateModel::kDeltaCostFactor");

  Table table({"degree", "informed", "churn q", "delta edges", "delta reads", "rebuild reads",
               "delta ms", "rebuild ms", "speedup", "ns/delta read", "ns/rebuild read",
               "ratio"});
  double worst_ratio = 0.0;

  auto serial_for = [](std::int64_t tasks, auto&& fn) {
    for (std::int64_t task = 0; task < tasks; ++task) fn(task);
  };

  for (const double degree : {8.0, 21.0}) {
    const double density = degree / static_cast<double>(n - 1);
    for (const NodeId start : {NodeId{1}, n / 2, n - n / 64}) {
      for (const double q : {1e-4, 1e-3, 1e-2, 0.1, 0.5}) {
        const double p = density * q / (1.0 - density);
        EdgeMarkovianNetwork net(n, p, q, 99);
        Bitset informed(static_cast<std::size_t>(n));
        std::int64_t informed_count = 0;
        const InformedView view(&informed, &informed_count);
        Rng rng(7);
        while (informed_count < start) {
          const auto v = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
          if (informed.test(v)) continue;
          informed.set(v);
          ++informed_count;
        }

        RateModel::Config config;
        config.track_dirty = true;
        Arena arena_a;
        Arena arena_b;
        RateModel delta_model;
        RateModel rebuild_model;
        config.policy = RateModel::DeltaPolicy::always;
        delta_model.begin_trial(arena_a, informed, n, config);
        config.policy = RateModel::DeltaPolicy::never;
        rebuild_model.begin_trial(arena_b, informed, n, config);

        const Graph* graph = &net.graph_at(0, view);
        delta_model.rebuild(graph->csr(), informed_count, serial_for);
        rebuild_model.rebuild(graph->csr(), informed_count, serial_for);

        double delta_seconds = 0.0;
        double rebuild_seconds = 0.0;
        std::int64_t delta_edges = 0;
        std::int64_t rebuild_reads = 0;
        for (int t = 1; t <= steps; ++t) {
          // A little infection traffic between change-points keeps the dirty
          // set realistic without exploding it.
          for (int k = 0; k < 2; ++k) {
            const NodeId v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
            if (informed.test(static_cast<std::size_t>(v))) continue;
            informed.set(static_cast<std::size_t>(v));
            ++informed_count;
            delta_model.inform(v);
            rebuild_model.inform(v);
          }
          graph = &net.graph_at(t, view);
          const std::optional<TopologyDelta> delta = net.last_delta();
          if (delta.has_value()) {
            delta_edges += static_cast<std::int64_t>(delta->removed.size() + delta->added.size());
          }
          rebuild_reads += rebuild_model.rebuild_reads(graph->csr(), informed_count);
          Timer timer;
          delta_model.on_change(graph->csr(), delta, informed_count, serial_for);
          delta_seconds += timer.seconds();
          Timer timer2;
          rebuild_model.on_change(graph->csr(), std::nullopt, informed_count, serial_for);
          rebuild_seconds += timer2.seconds();
        }

        const std::int64_t delta_reads = delta_model.delta_reads();
        const double ns_delta =
            delta_reads > 0 ? delta_seconds * 1e9 / static_cast<double>(delta_reads) : 0.0;
        const double ns_rebuild = rebuild_seconds * 1e9 / static_cast<double>(rebuild_reads);
        const double ratio = ns_rebuild > 0.0 ? ns_delta / ns_rebuild : 0.0;
        worst_ratio = std::max(worst_ratio, ratio);
        table.add_row({Table::cell(static_cast<std::int64_t>(degree)),
                       Table::cell(static_cast<std::int64_t>(start)), Table::cell(q, 4),
                       Table::cell(delta_edges / steps), Table::cell(delta_reads / steps),
                       Table::cell(rebuild_reads / steps), Table::cell(delta_seconds * 1e3, 2),
                       Table::cell(rebuild_seconds * 1e3, 2),
                       Table::cell(rebuild_seconds / std::max(1e-12, delta_seconds), 2),
                       Table::cell(ns_delta, 2), Table::cell(ns_rebuild, 2),
                       Table::cell(ratio, 2)});
      }
    }
  }
  table.print(std::cout);

  // The delta path is taken while its reads · factor are below the rebuild's,
  // so it is never slower than a rebuild only while the factor covers the
  // worst measured ratio.
  std::cout << "\nworst delta / rebuild ns-per-read ratio: " << worst_ratio
            << "\nRateModel::kDeltaCostFactor: " << RateModel::kDeltaCostFactor << "\n";
  const bool covered =
      worst_ratio > 0.0 && worst_ratio <= static_cast<double>(RateModel::kDeltaCostFactor);
  bench::verdict(covered, "RateModel::kDeltaCostFactor covers the worst measured ratio");
  return covered ? 0 : 1;
}
