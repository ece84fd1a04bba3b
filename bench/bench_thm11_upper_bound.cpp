// E1 — Theorem 1.1: the spread time of asynchronous push-pull in a dynamic
// network G is at most T(G,c) = min{ t : Σ Φ(G(p))·ρ(p) >= C(c)·log n } w.h.p.
//
// For each family the table reports the measured spread time (mean, p95) and
// the trajectory crossing time T(G,c) (mean over trials; for non-adaptive
// families the closed form). The theorem predicts measured <= bound in every
// row; the slack column shows how conservative the constant C = (10c+20)/c0
// is in practice.
#include <iostream>
#include <memory>

#include "bounds/theorem_bounds.h"
#include "common/bench_util.h"
#include "dynamic/absolute_adversary.h"
#include "dynamic/clique_bridge.h"
#include "dynamic/diligent_adversary.h"
#include "dynamic/dynamic_star.h"
#include "dynamic/simple_networks.h"
#include "graph/builders.h"
#include "graph/random_graphs.h"

namespace rumor {
namespace {

struct Row {
  std::string family;
  NodeId n;
  SampleSet spread;
  double bound;  // T(G,c) (mean trajectory crossing or closed form)
};

Row measure_tracked(const std::string& family, NodeId n, const NetworkFactory& factory,
                    int trials, double time_limit) {
  RunnerOptions opt;
  opt.trials = trials;
  opt.track_bounds = true;
  opt.time_limit = time_limit;
  const auto report = bench::run_all_completed(factory, opt);
  Row row{family, n, report.spread_time, -1.0};
  if (report.theorem11_crossing.count() > 0) row.bound = report.theorem11_crossing.mean();
  return row;
}

}  // namespace
}  // namespace rumor

int main(int argc, char** argv) {
  using namespace rumor;
  const Cli cli(argc, argv);
  const int trials = static_cast<int>(cli.get_int("trials", 15));
  const double scale = cli.get_double("scale", 1.0);
  const double c = 1.0;

  bench::banner("E1", "Theorem 1.1",
                "async spread time <= T(G,c) = min{t : sum Phi*rho >= C log n} w.h.p.");

  std::vector<Row> rows;

  for (NodeId n : {static_cast<NodeId>(256 * scale), static_cast<NodeId>(1024 * scale)}) {
    rows.push_back(measure_tracked(
        "dynamic-star", n + 1,
        [n](std::uint64_t seed) { return std::make_unique<DynamicStarNetwork>(n, seed); },
        trials, 1e6));

    // Static clique: exact profile known analytically.
    rows.push_back(measure_tracked(
        "static-clique", n,
        [n](std::uint64_t) {
          auto net = std::make_unique<StaticNetwork>(make_clique(n), "clique");
          GraphProfile p;
          p.conductance = static_cast<double>(n - n / 2) / (n - 1);
          p.diligence = 1.0;  // regular
          p.abs_diligence = 1.0 / (n - 1.0);
          p.connected = true;
          p.exact = true;
          net->set_profile(p);
          return net;
        },
        trials, 1e6));

    // Static random 4-regular expander: spectral Cheeger lower bound for Phi.
    rows.push_back(measure_tracked(
        "static-4reg-expander", n,
        [n](std::uint64_t seed) {
          Rng rng(seed);
          auto net =
              std::make_unique<StaticNetwork>(random_connected_regular(rng, n, 4), "expander");
          return net;
        },
        trials, 1e6));
  }

  // Adaptive adversaries (Sections 4 and 5.1).
  {
    const NodeId n = static_cast<NodeId>(1024 * scale);
    rows.push_back(measure_tracked(
        "diligent-adversary rho=1/8", n,
        [n](std::uint64_t seed) {
          return std::make_unique<DiligentAdversaryNetwork>(n, 0.125, 0, seed);
        },
        trials, 1e7));
    rows.push_back(measure_tracked(
        "absolute-adversary rho=1/16", n,
        [n](std::uint64_t seed) {
          return std::make_unique<AbsoluteAdversaryNetwork>(n, 1.0 / 16.0, seed);
        },
        trials, 1e7));
  }

  // G1 (Figure 1a): eventually-static, so T(G,c) has a closed form.
  {
    const NodeId n_clique = static_cast<NodeId>(256 * scale);
    const NodeId n = n_clique + 1;
    RunnerOptions opt;
    opt.trials = trials;
    opt.time_limit = 1e7;
    const auto report = bench::run_all_completed(
        [n_clique](std::uint64_t) { return std::make_unique<CliqueBridgeNetwork>(n_clique); },
        opt);
    CliqueBridgeNetwork probe(n_clique);
    Bitset flags(static_cast<std::size_t>(n));
    std::int64_t count = 0;
    const InformedView view(&flags, &count);
    probe.graph_at(0, view);
    const GraphProfile p0 = probe.current_profile();
    probe.graph_at(1, view);
    const GraphProfile tail = probe.current_profile();
    const auto t11 = theorem11_time_with_tail(std::span(&p0, 1), tail, n, c);
    Row row{"G1-clique-bridge", n, report.spread_time, static_cast<double>(t11)};
    rows.push_back(row);
  }

  Table table({"family", "n", "spread mean±se", "spread p95", "T(G,c)", "bound/spread",
               "holds"});
  bool all_hold = true;
  for (const auto& row : rows) {
    const bool holds = row.bound < 0 ? false : row.spread.max() <= row.bound + 1.0;
    all_hold = all_hold && holds;
    table.add_row({row.family, Table::cell(static_cast<std::int64_t>(row.n)),
                   bench::mean_pm(row.spread), Table::cell(row.spread.quantile(0.95)),
                   Table::cell(row.bound), Table::cell(row.bound / row.spread.mean(), 3),
                   holds ? "yes" : "NO"});
  }
  table.print(std::cout);

  bench::verdict(all_hold,
                 "measured spread time <= T(G,c) on every family (the paper's constant "
                 "C = (10c+20)/c0 is deliberately conservative, so large slack is expected)");
  return all_hold ? 0 : 1;
}
