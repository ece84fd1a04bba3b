// Cross-path identity suite for the incremental change-point tier: the
// delta-applied RateModel state must equal the full-rebuild state bit for bit
// at every change-point, for every delta-reporting family, at rebuild worker
// counts {1, 2, 8}, from one informed node, half of them and all but 64,
// under push, pull and push-pull — plus engine-level end-to-end checks that
// hiding a family's deltas changes nothing in the per-trial records, and that
// the automatic path choice follows the family's churn.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "core/async_engine.h"
#include "core/engine_workspace.h"
#include "core/rate_model.h"
#include "core/trial_pool.h"
#include "dynamic/edge_markovian.h"
#include "dynamic/edge_sampling.h"
#include "dynamic/mobile_geometric.h"
#include "graph/builders.h"
#include "graph/random_graphs.h"
#include "stats/rng.h"

namespace rumor {
namespace {

// Bitwise comparison of double tables: exact float equality would conflate
// 0.0 with -0.0 and hide summation-order drift smaller than a ULP print.
bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_models_identical(const RateModel& delta_path, const RateModel& rebuild_path) {
  EXPECT_TRUE(bits_equal(delta_path.rates().values(), rebuild_path.rates().values()));
  EXPECT_TRUE(bits_equal(delta_path.rates().block_sums(), rebuild_path.rates().block_sums()));
  EXPECT_TRUE(bits_equal(delta_path.rates().super_sums(), rebuild_path.rates().super_sums()));
  const double ta = delta_path.total();
  const double tb = rebuild_path.total();
  EXPECT_EQ(0, std::memcmp(&ta, &tb, sizeof(double)));
  EXPECT_TRUE(bits_equal(delta_path.winv(), rebuild_path.winv()));
}

// Drives one family through `steps` change-points: a delta-forced model and a
// rebuild-forced model see the same informed-set evolution and the same
// graphs, and must agree bitwise after every change-point. `workers` threads
// execute the rebuild tiles (the delta path itself is serial by design). The
// trial starts from `start_informed` random nodes, under `protocol`.
void run_cross_path(std::unique_ptr<DynamicNetwork> net, int steps, int workers,
                    std::uint64_t seed, NodeId start_informed = 1,
                    Protocol protocol = Protocol::push_pull) {
  const NodeId n = net->node_count();
  Bitset informed(static_cast<std::size_t>(n));
  std::int64_t informed_count = 0;
  const InformedView view(&informed, &informed_count);

  TrialPool pool;
  auto parallel_for = [&](std::int64_t tasks, auto&& fn) {
    if (workers > 1) {
      pool.run(tasks, workers, 1, [&](std::int64_t task, int) { fn(task); });
    } else {
      for (std::int64_t task = 0; task < tasks; ++task) fn(task);
    }
  };

  RateModel::Config config;
  config.beta = 1.0;
  config.do_push = protocol != Protocol::pull;
  config.pull_scale = protocol != Protocol::push ? 1.0 : 0.0;
  config.track_dirty = true;

  Arena arena_a;
  Arena arena_b;
  RateModel delta_model;
  RateModel rebuild_model;
  config.policy = RateModel::DeltaPolicy::always;
  delta_model.begin_trial(arena_a, informed, n, config);
  config.policy = RateModel::DeltaPolicy::never;
  rebuild_model.begin_trial(arena_b, informed, n, config);

  Rng rng(seed);
  while (informed_count < start_informed) {
    const auto v = static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
    if (informed.test(v)) continue;
    informed.set(v);
    ++informed_count;
  }

  const Graph* graph = &net->graph_at(0, view);
  delta_model.rebuild(graph->csr(), informed_count, parallel_for);
  rebuild_model.rebuild(graph->csr(), informed_count, parallel_for);
  std::uint64_t version = graph->version();

  std::int64_t delta_steps = 0;
  for (int t = 1; t <= steps; ++t) {
    // Between change-points, a handful of infections drive the incremental
    // add()/clear() updates whose drift the delta path must also repair.
    const int infections = static_cast<int>(rng.below(4));
    for (int k = 0; k < infections && informed_count < n; ++k) {
      NodeId v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      if (informed.test(static_cast<std::size_t>(v))) continue;
      informed.set(static_cast<std::size_t>(v));
      ++informed_count;
      delta_model.inform(v);
      rebuild_model.inform(v);
    }

    const Graph* next = &net->graph_at(t, view);
    if (next->version() == version) continue;
    version = next->version();
    graph = next;
    const std::optional<TopologyDelta> delta = net->last_delta();
    if (delta_model.on_change(graph->csr(), delta, informed_count, parallel_for)) {
      ++delta_steps;
    }
    rebuild_model.on_change(graph->csr(), std::nullopt, informed_count, parallel_for);
    expect_models_identical(delta_model, rebuild_model);
    if (::testing::Test::HasFailure()) {
      FAIL() << "cross-path divergence at change-point " << t;
    }
  }
  // The forced-delta model must have actually exercised the delta path on
  // (nearly) every change-point, not silently fallen back.
  EXPECT_GT(delta_steps, steps / 2);
}

TEST(RateModelCrossPath, EdgeMarkovian) {
  // Mean degree 8 at n = 20000, near-stationary small p/q.
  for (int workers : {1, 2, 8}) {
    run_cross_path(std::make_unique<EdgeMarkovianNetwork>(20000, 1.2e-4, 0.3, 71), 110,
                   workers, 1000 + static_cast<std::uint64_t>(workers));
  }
}

TEST(RateModelCrossPath, EdgeSampling) {
  for (int workers : {1, 2, 8}) {
    Rng rng(5);
    Graph base = random_connected_regular(rng, 20000, 4);
    run_cross_path(std::make_unique<EdgeSamplingNetwork>(std::move(base), 0.5, 31), 110,
                   workers, 2000 + static_cast<std::uint64_t>(workers));
  }
}

TEST(RateModelCrossPath, MobileGeometric) {
  for (int workers : {1, 2, 8}) {
    run_cross_path(std::make_unique<MobileGeometricNetwork>(12000, 0.01, 0.002, 13), 110,
                   workers, 3000 + static_cast<std::uint64_t>(workers));
  }
}

// Runs `family` from half its nodes informed and from all but 64, under each
// protocol. The delta path refreshes only the cut (uninformed endpoints,
// uninformed neighbours of informed endpoints, dirty entries), a set that
// shrinks to the few uninformed nodes near the end of a spread; under push
// alone an uninformed node's own winv drops out of its rate, under pull alone
// its informed neighbours' winv does.
template <typename MakeNetwork>
void run_cut_extremes(NodeId n, MakeNetwork&& family, std::uint64_t seed) {
  for (const Protocol protocol : {Protocol::push, Protocol::pull, Protocol::push_pull}) {
    for (const NodeId start : {n / 2, n - 64}) {
      run_cross_path(family(), 20, 2, ++seed, start, protocol);
    }
  }
}

TEST(RateModelCrossPath, CutExtremesEdgeMarkovian) {
  run_cut_extremes(
      20000, [] { return std::make_unique<EdgeMarkovianNetwork>(20000, 4e-6, 0.01, 71); }, 4000);
}

TEST(RateModelCrossPath, CutExtremesEdgeSampling) {
  Rng rng(5);
  const Graph base = random_connected_regular(rng, 20000, 4);
  run_cut_extremes(
      20000, [&] { return std::make_unique<EdgeSamplingNetwork>(Graph(base), 0.5, 31); }, 5000);
}

TEST(RateModelCrossPath, CutExtremesMobileGeometric) {
  // Half the cross-path cell's nodes at the same mean degree (~3.8); n = 6007
  // ends the delta path's mark sweep on a 7-node partial word.
  run_cut_extremes(
      6007, [] { return std::make_unique<MobileGeometricNetwork>(6007, 0.0142, 0.002, 13); },
      6000);
}

// Rebuilds write every r(v) straight into the rate table, so with dirty
// tracking off a trial's arena holds winv (8 bytes a node) and the
// sparse-gather marks (1 byte a node) and no second copy of the rates.
TEST(RateModelArena, HoldsOnlyWinvAndGatherMarks) {
  const NodeId n = NodeId{1} << 20;
  const Graph cycle = make_cycle(n);
  Bitset informed(static_cast<std::size_t>(n));
  informed.set(0);
  RateModel::Config config;
  config.track_dirty = false;
  Arena arena;
  RateModel model;
  model.begin_trial(arena, informed, n, config);
  model.rebuild(cycle.csr(), 1, [](std::int64_t tasks, auto&& fn) {
    for (std::int64_t task = 0; task < tasks; ++task) fn(task);
  });
  // Node 0's two cycle neighbours each race push β/2 plus pull β/2.
  EXPECT_EQ(model.total(), 2.0);
  const auto nsz = static_cast<std::size_t>(n);
  EXPECT_LE(arena.high_water(), (8 + 1) * nsz + 4096);
}

// Forwarding wrapper that hides a family's deltas, forcing the engine onto
// the full-rebuild path at every change-point.
class HiddenDeltaNetwork final : public DynamicNetwork {
 public:
  explicit HiddenDeltaNetwork(std::unique_ptr<DynamicNetwork> inner)
      : inner_(std::move(inner)) {}
  NodeId node_count() const override { return inner_->node_count(); }
  const Graph& graph_at(std::int64_t t, const InformedView& informed) override {
    return inner_->graph_at(t, informed);
  }
  const Graph& current_graph() const override { return inner_->current_graph(); }
  GraphProfile current_profile() const override { return inner_->current_profile(); }
  NodeId suggested_source() const override { return inner_->suggested_source(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<DynamicNetwork> inner_;
};

// End to end through run_async_jump: per-trial results must be identical
// whether the engine takes the delta path or is forced to rebuild — and the
// delta path must actually engage for a near-stationary edge-Markovian model.
TEST(RateModelCrossPath, JumpEngineRecordsUnchangedByDeltaPath) {
  // Near-stationary regime (mean degree 8, tiny churn): per-step deltas of a
  // few dozen edges, under the crossover at least on the quiet early steps.
  const NodeId n = 40000;
  const double p = 2e-8, q = 1e-4;
  for (std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    AsyncOptions options;
    options.time_limit = 64.0;

    EngineWorkspace with_delta_ws;
    options.workspace = &with_delta_ws;
    EdgeMarkovianNetwork net(n, p, q, seed);
    Rng rng_a(seed * 7919);
    const SpreadResult with_delta = run_async_jump(net, 0, rng_a, options);
    EXPECT_GT(with_delta_ws.rate_model.delta_updates(), 0)
        << "delta path never engaged; the heuristic or the family report broke";

    EngineWorkspace rebuild_ws;
    options.workspace = &rebuild_ws;
    HiddenDeltaNetwork hidden(std::make_unique<EdgeMarkovianNetwork>(n, p, q, seed));
    Rng rng_b(seed * 7919);
    const SpreadResult rebuilt = run_async_jump(hidden, 0, rng_b, options);
    EXPECT_EQ(rebuild_ws.rate_model.delta_updates(), 0);

    EXPECT_EQ(with_delta.spread_time, rebuilt.spread_time);
    EXPECT_EQ(with_delta.informed_count, rebuilt.informed_count);
    EXPECT_EQ(with_delta.informative_contacts, rebuilt.informative_contacts);
    EXPECT_EQ(with_delta.graph_changes, rebuilt.graph_changes);
    EXPECT_EQ(with_delta.informed, rebuilt.informed);
  }
}

// Automatic path choice, read off the model's counters after one jump-engine
// trial: both paths are exact, so only these counters show which one ran.
struct PathCounts {
  std::int64_t change_points = 0;
  std::int64_t delta_updates = 0;
  std::int64_t full_rebuilds = 0;  // the trial's initial rebuild included
};

PathCounts count_paths(DynamicNetwork& net, double clock_rate, std::uint64_t seed) {
  EngineWorkspace ws;
  AsyncOptions options;
  options.clock_rate = clock_rate;
  options.workspace = &ws;
  Rng rng(seed);
  const SpreadResult result = run_async_jump(net, 0, rng, options);
  EXPECT_TRUE(result.completed);
  return {result.graph_changes, ws.rate_model.delta_updates(), ws.rate_model.full_rebuilds()};
}

// A trickle of churn on a dense graph, the shape of perfbench's em_trickle at
// half its n: mean degree ~21, ~8 edge flips per change-point, and a slow
// clock that spreads ~20 informs over each interval on average. Refreshing
// the cut is cheaper than a rebuild from the first informed node to the last,
// so nearly every change-point must take the delta path (437 of 464 here).
TEST(RateModelPathChoice, TrickleChurnTakesTheDeltaPath) {
  EdgeMarkovianNetwork net(10000, 8e-8, 3.8e-5, 19);
  const PathCounts counts = count_paths(net, 0.02, 7);
  EXPECT_GT(counts.change_points, 300);
  EXPECT_GE(counts.delta_updates * 10, counts.change_points * 9)
      << counts.delta_updates << " delta updates over " << counts.change_points
      << " change-points";
}

// Step-sized churn (~48k of ~80k edges flip per change-point): the first
// change-point's delta prices above a rebuild, which also stops the dirty
// tracking, so every later change-point rebuilds without pricing.
TEST(RateModelPathChoice, StepSizedChurnRebuildsEveryChangePoint) {
  EdgeMarkovianNetwork net(20000, 1.2e-4, 0.3, 71);
  const PathCounts counts = count_paths(net, 1.0, 5);
  EXPECT_GT(counts.change_points, 5);
  EXPECT_LE(counts.delta_updates, 1);
  EXPECT_GE(counts.full_rebuilds, counts.change_points);
}

}  // namespace
}  // namespace rumor
