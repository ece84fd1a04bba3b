// Delta ablation — measures the two change-point paths of the jump engine's
// RateModel against each other on a near-stationary edge-Markovian family:
// the O(Δ·deg) incremental refresh (forced via DeltaPolicy::always) vs the
// O(n) tiled full rebuild (DeltaPolicy::never), across a sweep of per-step
// churn rates. The printed per-candidate vs per-node cost ratio is where
// RateModel::kDeltaCostFactor comes from; re-run this bench whenever the
// refresh or rebuild loops change shape.
#include <algorithm>
#include <iostream>
#include <memory>
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
  const int steps = static_cast<int>(cli.get_int("steps", 60));

  bench::banner("DELTA", "incremental change-point tier",
                "delta-path refresh vs tiled full rebuild at matched change-points; the "
                "cost ratio calibrates RateModel::kDeltaCostFactor");

  Table table({"churn q", "delta edges", "candidates", "delta ms", "rebuild ms", "speedup",
               "ns/candidate", "ns/node", "factor"});
  double worst_factor = 0.0;

  const double degree = 8.0;
  const double density = degree / static_cast<double>(n - 1);
  for (const double q : {1e-4, 1e-3, 1e-2, 0.1, 0.5}) {
    const double p = density * q / (1.0 - density);
    EdgeMarkovianNetwork net(n, p, q, 99);
    Bitset informed(static_cast<std::size_t>(n));
    std::int64_t informed_count = 0;
    const InformedView view(&informed, &informed_count);
    informed.set(0);
    ++informed_count;

    auto serial_for = [](std::int64_t tasks, auto&& fn) {
      for (std::int64_t task = 0; task < tasks; ++task) fn(task);
    };

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

    Rng rng(7);
    double delta_seconds = 0.0;
    double rebuild_seconds = 0.0;
    std::int64_t delta_edges = 0;
    std::int64_t candidates = 0;
    for (int t = 1; t <= steps; ++t) {
      // A little infection traffic between change-points keeps the dirty set
      // realistic without exploding it.
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
        for (const auto& part : {delta->removed, delta->added}) {
          for (const Edge& e : part) {
            candidates += 2 + graph->csr().degree(e.u) + graph->csr().degree(e.v);
          }
        }
      }
      Timer timer;
      delta_model.on_change(graph->csr(), delta, informed_count, serial_for);
      delta_seconds += timer.seconds();
      Timer timer2;
      rebuild_model.on_change(graph->csr(), std::nullopt, informed_count, serial_for);
      rebuild_seconds += timer2.seconds();
    }

    const double ns_candidate =
        candidates > 0 ? delta_seconds * 1e9 / static_cast<double>(candidates) : 0.0;
    const double ns_node =
        rebuild_seconds * 1e9 / (static_cast<double>(n) * static_cast<double>(steps));
    const double factor = ns_node > 0.0 ? ns_candidate / ns_node : 0.0;
    worst_factor = std::max(worst_factor, factor);
    table.add_row({Table::cell(q, 4), Table::cell(delta_edges / steps),
                   Table::cell(candidates / steps), Table::cell(delta_seconds * 1e3, 2),
                   Table::cell(rebuild_seconds * 1e3, 2),
                   Table::cell(rebuild_seconds / std::max(1e-12, delta_seconds), 2),
                   Table::cell(ns_candidate, 1), Table::cell(ns_node, 1),
                   Table::cell(factor, 2)});
  }
  table.print(std::cout);

  // The delta path is a sure win only while the factor is at least the worst
  // measured ratio; say which of the two is larger rather than assume it.
  const auto cost_factor = static_cast<double>(RateModel::kDeltaCostFactor);
  std::cout << "\nworst per-candidate / per-node cost ratio: " << worst_factor
            << "\nRateModel::kDeltaCostFactor: " << RateModel::kDeltaCostFactor << " ("
            << (cost_factor >= worst_factor
                    ? "not below the worst measured ratio"
                    : "below the worst measured ratio: the delta path can be taken where it "
                      "is slower than a rebuild")
            << ")\n";
  bench::verdict(worst_factor > 0.0, "measured the delta-path crossover ratio");
  return 0;
}
