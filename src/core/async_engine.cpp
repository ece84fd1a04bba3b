#include "core/async_engine.h"

#include <cmath>
#include <limits>
#include <vector>

#include "core/engine_workspace.h"
#include "core/rate_model.h"
#include "stats/distributions.h"
#include "support/bitset.h"
#include "support/contracts.h"

namespace rumor {

namespace {

// Below this the whole rebuild fits in cache and tiling is pure overhead.
constexpr NodeId kParallelRebuildMinNodes = 1 << 14;

// Lends the workspace's rebuild pool to the dynamic family for its own tiled
// per-step evolution (DynamicNetwork::set_parallel_evolution), and detaches
// on scope exit so the borrowed pool pointer can never dangle.
class PoolEvolutionLease final : public ParallelEvolution {
 public:
  PoolEvolutionLease(DynamicNetwork& net, EngineWorkspace& ws, int team) : net_(net) {
    if (team > 1) {
      pool_ = &ws.rebuild_pool();
      team_ = team;
      net_.set_parallel_evolution(this);
      attached_ = true;
    }
  }
  ~PoolEvolutionLease() override {
    if (attached_) net_.set_parallel_evolution(nullptr);
  }
  PoolEvolutionLease(const PoolEvolutionLease&) = delete;
  PoolEvolutionLease& operator=(const PoolEvolutionLease&) = delete;

  void run(std::int64_t tasks, const std::function<void(std::int64_t)>& fn) override {
    // Chunked claiming keeps the shared-cursor contention negligible when a
    // family fans out tens of thousands of small tiles.
    const std::int64_t chunk = std::max<std::int64_t>(1, tasks / (8 * team_));
    pool_->run(tasks, team_, chunk, [&](std::int64_t task, int) { fn(task); });
  }

 private:
  DynamicNetwork& net_;
  TrialPool* pool_ = nullptr;
  int team_ = 1;
  bool attached_ = false;
};

// Informed-set bookkeeping over a workspace-owned bitset.
struct RunState {
  Bitset* informed = nullptr;
  std::int64_t informed_count = 0;

  void init(Bitset& bits, NodeId n, NodeId source, const std::vector<NodeId>& extras) {
    informed = &bits;
    informed->set(static_cast<std::size_t>(source));
    informed_count = 1;
    for (NodeId u : extras) {
      DG_REQUIRE(u >= 0 && u < n, "extra source out of range");
      if (!informed->test(static_cast<std::size_t>(u))) {
        informed->set(static_cast<std::size_t>(u));
        ++informed_count;
      }
    }
  }
  bool is_informed(NodeId u) const { return informed->test(static_cast<std::size_t>(u)); }
  void inform(NodeId u) {
    DG_ASSERT(!is_informed(u), "node informed twice");
    informed->set(static_cast<std::size_t>(u));
    ++informed_count;
  }
};

void check_options(NodeId n, NodeId source, const AsyncOptions& options) {
  DG_REQUIRE(n >= 1, "network must have nodes");
  DG_REQUIRE(source >= 0 && source < n, "source out of range");
  DG_REQUIRE(options.clock_rate > 0.0, "clock rate must be positive");
  DG_REQUIRE(options.time_limit > 0.0, "time limit must be positive");
  DG_REQUIRE(options.transmission_failure_prob >= 0.0 &&
                 options.transmission_failure_prob < 1.0,
             "failure probability must lie in [0, 1)");
}

}  // namespace

SpreadResult run_async_jump(DynamicNetwork& net, NodeId source, Rng& rng,
                            const AsyncOptions& options) {
  const NodeId n = net.node_count();
  check_options(n, source, options);

  EngineWorkspace local_ws;
  EngineWorkspace& ws = options.workspace != nullptr ? *options.workspace : local_ws;
  ws.prepare(n);

  SpreadResult result;
  RunState state;
  state.init(ws.informed, n, source, options.extra_sources);
  const InformedView view(&ws.informed, &state.informed_count);

  if (options.record_trace) result.trace.push_back({0.0, state.informed_count});
  if (n == 1) {
    result.completed = true;
    result.informed_count = 1;
    result.informed = ws.informed;
    return result;
  }

  std::int64_t t_step = 0;
  const Graph* graph = &net.graph_at(0, view);
  std::uint64_t version = graph->version();

  // Lossy contacts thin every informing Poisson stream by (1 - p): exact.
  const double beta = options.clock_rate * (1.0 - options.transmission_failure_prob);
  const bool do_push =
      options.protocol == Protocol::push || options.protocol == Protocol::push_pull;
  const bool do_pull =
      options.protocol == Protocol::pull || options.protocol == Protocol::push_pull;

  ExponentialBlock clocks;

  // Per change-point the rate model refreshes r(v) for every uninformed v —
  // a full rebuild walking whichever side of the cut holds less volume, with
  // the O(n) phases tiled over the workspace's rebuild pool when the runner
  // left intra-trial threads — or, when the family reports its change as a
  // small edge delta, an O(Δ·deg) incremental refresh that is bit-identical
  // to the rebuild by construction (core/rate_model.h has the argument; the
  // cross-path suite in tests/test_rate_model.cpp asserts it).
  const int team = (ws.rebuild_threads > 1 && n >= kParallelRebuildMinNodes)
                       ? ws.rebuild_threads
                       : 1;
  auto parallel_for = [&](std::int64_t tasks, auto&& fn) {
    if (team > 1) {
      ws.rebuild_pool().run(tasks, team, 1,
                            [&](std::int64_t task, int) { fn(task); });
    } else {
      for (std::int64_t task = 0; task < tasks; ++task) fn(task);
    }
  };

  RateModel& model = ws.rate_model;
  RateModel::Config model_config;
  model_config.beta = beta;
  model_config.do_push = do_push;
  model_config.pull_scale = do_pull ? 1.0 : 0.0;
  model_config.track_dirty = net.reports_deltas();
  model.begin_trial(ws.arena, ws.informed, n, model_config);
  model.rebuild(graph->csr(), state.informed_count, parallel_for);

  // Lend the rebuild pool to the family for its own tiled evolution (a no-op
  // for families without one); revoked when the lease leaves scope.
  PoolEvolutionLease evolution_lease(net, ws, team);

  auto inform_node = [&](NodeId v) {
    state.inform(v);
    ++result.informative_contacts;
    model.inform(v);
  };

  double tau = 0.0;
  while (state.informed_count < n && tau < options.time_limit) {
    const double boundary = static_cast<double>(t_step) + 1.0;
    const double lambda = model.total();

    double next_event = std::numeric_limits<double>::infinity();
    if (lambda > 0.0) next_event = tau + clocks.next(rng) / lambda;

    if (next_event < boundary && next_event <= options.time_limit) {
      tau = next_event;
      const NodeId v = static_cast<NodeId>(model.sample(rng.uniform() * lambda));
      inform_node(v);
      if (options.record_trace) result.trace.push_back({tau, state.informed_count});
      continue;
    }

    // Advance to the next integer boundary; the adversary may swap the graph.
    // Memorylessness makes discarding the in-flight exponential exact.
    tau = boundary;
    if (tau >= options.time_limit) break;
    ++t_step;
    const Graph* next = &net.graph_at(t_step, view);
    if (next->version() != version) {
      graph = next;
      version = next->version();
      ++result.graph_changes;
      model.on_change(graph->csr(), net.last_delta(), state.informed_count, parallel_for);
    }
  }

  result.informed_count = state.informed_count;
  result.informed = ws.informed;
  result.completed = state.informed_count == n;
  result.spread_time = result.completed ? tau : options.time_limit;
  return result;
}

SpreadResult run_async_tick(DynamicNetwork& net, NodeId source, Rng& rng,
                            const AsyncOptions& options) {
  const NodeId n = net.node_count();
  check_options(n, source, options);

  EngineWorkspace local_ws;
  EngineWorkspace& ws = options.workspace != nullptr ? *options.workspace : local_ws;
  ws.prepare(n);

  SpreadResult result;
  RunState state;
  state.init(ws.informed, n, source, options.extra_sources);
  const InformedView view(&ws.informed, &state.informed_count);

  if (options.record_trace) result.trace.push_back({0.0, state.informed_count});
  if (n == 1) {
    result.completed = true;
    result.informed_count = 1;
    result.informed = ws.informed;
    return result;
  }

  std::int64_t t_step = 0;
  const Graph* graph = &net.graph_at(0, view);
  std::uint64_t version = graph->version();
  CsrView csr = graph->csr();

  // The tick engine keeps no rate structures, but the family's own per-step
  // evolution still profits from the surplus-thread pool.
  const int evolution_team = (ws.rebuild_threads > 1 && n >= kParallelRebuildMinNodes)
                                 ? ws.rebuild_threads
                                 : 1;
  PoolEvolutionLease evolution_lease(net, ws, evolution_team);

  // Superposition: the n independent rate-β clocks tick as one rate-nβ
  // Poisson process whose marks are uniform over nodes. The inter-tick gaps
  // come from block draws of unit exponentials scaled by 1/(nβ).
  const double inv_total_rate = 1.0 / (static_cast<double>(n) * options.clock_rate);
  ExponentialBlock clocks;

  const bool do_push =
      options.protocol == Protocol::push || options.protocol == Protocol::push_pull;
  const bool do_pull =
      options.protocol == Protocol::pull || options.protocol == Protocol::push_pull;

  double tau = 0.0;
  while (state.informed_count < n && tau < options.time_limit) {
    const double next_tick = tau + clocks.next(rng) * inv_total_rate;

    // Cross all integer boundaries before the tick.
    while (static_cast<double>(t_step) + 1.0 <= next_tick) {
      ++t_step;
      if (static_cast<double>(t_step) > options.time_limit) break;
      const Graph* next = &net.graph_at(t_step, view);
      if (next->version() != version) {
        graph = next;
        version = next->version();
        csr = graph->csr();
        ++result.graph_changes;
      }
    }
    tau = next_tick;
    if (tau >= options.time_limit) break;

    const NodeId u = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    const NodeId deg = csr.degree(u);
    if (deg == 0) continue;  // isolated node: the call goes nowhere
    const NodeId v = csr.adjacency[csr.offsets[u] + static_cast<std::int64_t>(
                                                        rng.below(static_cast<std::uint64_t>(deg)))];
    ++result.total_contacts;
    if (options.transmission_failure_prob > 0.0 &&
        rng.flip(options.transmission_failure_prob)) {
      continue;  // the contact happened but the exchange was lost
    }

    const bool iu = state.is_informed(u);
    const bool iv = state.is_informed(v);
    if (do_push && iu && !iv) {
      state.inform(v);
      ++result.informative_contacts;
      if (options.record_trace) result.trace.push_back({tau, state.informed_count});
    } else if (do_pull && iv && !iu) {
      state.inform(u);
      ++result.informative_contacts;
      if (options.record_trace) result.trace.push_back({tau, state.informed_count});
    }
  }

  result.informed_count = state.informed_count;
  result.informed = ws.informed;
  result.completed = state.informed_count == n;
  result.spread_time = result.completed ? tau : options.time_limit;
  return result;
}

}  // namespace rumor
