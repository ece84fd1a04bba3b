// Tests for the persistent trial pool and the scale tier's determinism
// contract: SpreadResult streams are bit-identical for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/runner.h"
#include "core/trial_pool.h"
#include "scenarios/experiment.h"

namespace rumor {
namespace {

// --- Pool mechanics ---------------------------------------------------------

TEST(TrialPool, RunsEveryTaskExactlyOnce) {
  TrialPool pool;
  std::vector<std::atomic<int>> hits(100);
  pool.run(100, 4, 1, [&](std::int64_t task, int) {
    hits[static_cast<std::size_t>(task)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TrialPool, WorkerIdsAreDense) {
  TrialPool pool;
  std::mutex mu;
  std::set<int> workers;
  // Hold every task open until all three workers have claimed one, so each
  // worker id is observed deterministically. (A plain fast task body lets the
  // helpers drain the whole range before the caller claims anything — seen in
  // practice under TSan's slowed scheduling — and the pool's contract only
  // promises the caller *participates*, not that it wins a task.)
  std::condition_variable all_in;
  int arrived = 0;
  pool.run(3, 3, 1, [&](std::int64_t, int worker) {
    std::unique_lock<std::mutex> lock(mu);
    workers.insert(worker);
    ++arrived;
    all_in.notify_all();
    all_in.wait(lock, [&] { return arrived == 3; });
  });
  EXPECT_EQ(workers, (std::set<int>{0, 1, 2}));  // dense, caller is worker 0
}

TEST(TrialPool, MoreWorkersThanTasksClamps) {
  TrialPool pool;
  std::vector<std::atomic<int>> hits(2);
  pool.run(2, 8, 1, [&](std::int64_t task, int worker) {
    EXPECT_LT(worker, 2);
    hits[static_cast<std::size_t>(task)].fetch_add(1);
  });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(TrialPool, ReusableAcrossRunsAndGrowsLazily) {
  TrialPool pool;
  EXPECT_EQ(pool.helper_count(), 0);
  pool.run(10, 2, 1, [](std::int64_t, int) {});
  EXPECT_EQ(pool.helper_count(), 1);
  pool.run(10, 4, 4, [](std::int64_t, int) {});
  EXPECT_EQ(pool.helper_count(), 3);
  std::atomic<int> count{0};
  pool.run(1000, 4, 16, [&](std::int64_t, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000);
}

TEST(TrialPool, PropagatesTheFirstException) {
  TrialPool pool;
  EXPECT_THROW(pool.run(50, 4, 1,
                        [&](std::int64_t task, int) {
                          if (task == 7) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> count{0};
  pool.run(10, 4, 1, [&](std::int64_t, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(TrialPool, ZeroTasksIsANoop) {
  TrialPool pool;
  pool.run(0, 4, 1, [](std::int64_t, int) { FAIL() << "no tasks to run"; });
}

TEST(TrialPool, NestedRunOnSamePoolExecutesInline) {
  TrialPool pool;
  std::atomic<int> inner{0};
  pool.run(4, 4, 1, [&](std::int64_t, int) {
    pool.run(3, 4, 1, [&](std::int64_t, int worker) {
      EXPECT_EQ(worker, 0);  // inline on the caller, no deadlock
      inner.fetch_add(1);
    });
  });
  EXPECT_EQ(inner.load(), 4 * 3);
}

TEST(TrialPool, ConcurrentOutsideCallersSerialize) {
  TrialPool pool;
  std::atomic<int> count{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&]() {
      pool.run(20, 2, 1, [&](std::int64_t, int) { count.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(count.load(), 3 * 20);
}

// --- Bit-identical SpreadResult streams across thread counts ----------------

void expect_results_identical(const SpreadResult& a, const SpreadResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.spread_time, b.spread_time);  // exact: bit-identity, not closeness
  EXPECT_EQ(a.informed_count, b.informed_count);
  EXPECT_EQ(a.informative_contacts, b.informative_contacts);
  EXPECT_EQ(a.total_contacts, b.total_contacts);
  EXPECT_EQ(a.graph_changes, b.graph_changes);
  EXPECT_EQ(a.theorem11_crossing, b.theorem11_crossing);
  EXPECT_EQ(a.theorem13_crossing, b.theorem13_crossing);
  EXPECT_EQ(a.informed, b.informed);
}

// Every trial's full result, collected in trial order through the sink.
std::vector<SpreadResult> run_collecting(const ExperimentConfig& config) {
  std::vector<SpreadResult> per_trial;
  run_experiment(config, [&per_trial](const ExperimentResult&, int, const SpreadResult& r) {
    per_trial.push_back(r);
  });
  return per_trial;
}

// Runs one scenario at the given thread counts and requires every per-trial
// record to match the threads=1 stream bit for bit.
void check_scenario_determinism(const std::string& scenario,
                                const std::map<std::string, std::string>& params,
                                EngineKind engine = EngineKind::async_jump) {
  ExperimentConfig config;
  config.scenario = scenario;
  config.param_overrides = params;
  config.runner.engine = engine;
  config.runner.trials = 6;
  config.runner.seed = 20260726;
  config.runner.threads = 1;
  const std::vector<SpreadResult> base = run_collecting(config);
  ASSERT_EQ(base.size(), 6u) << scenario;

  for (int threads : {2, 8}) {
    config.runner.threads = threads;
    const std::vector<SpreadResult> other = run_collecting(config);
    ASSERT_EQ(other.size(), 6u) << scenario << " threads=" << threads;
    for (std::size_t i = 0; i < 6; ++i) {
      SCOPED_TRACE(scenario + " threads=" + std::to_string(threads) + " trial " +
                   std::to_string(i));
      expect_results_identical(base[i], other[i]);
    }
  }
}

// One scenario per family: static baselines, random statics, the paper's
// oblivious and adaptive constructions, and each related-work model.
TEST(TrialPoolDeterminism, StaticClique) {
  check_scenario_determinism("static_clique", {{"n", "64"}});
}
TEST(TrialPoolDeterminism, StaticExpander) {
  check_scenario_determinism("static_expander", {{"n", "64"}, {"d", "4"}});
}
TEST(TrialPoolDeterminism, DynamicStar) {
  check_scenario_determinism("dynamic_star", {{"n", "48"}});
}
TEST(TrialPoolDeterminism, CliqueBridge) {
  check_scenario_determinism("clique_bridge", {{"n", "32"}});
}
TEST(TrialPoolDeterminism, DiligentAdversary) {
  check_scenario_determinism("diligent_adversary", {{"n", "128"}, {"rho", "0.25"}});
}
TEST(TrialPoolDeterminism, AbsoluteAdversary) {
  check_scenario_determinism("absolute_adversary", {{"n", "64"}, {"rho", "0.2"}});
}
TEST(TrialPoolDeterminism, EdgeMarkovian) {
  check_scenario_determinism("edge_markovian", {{"n", "64"}});
}
TEST(TrialPoolDeterminism, MobileGeometric) {
  check_scenario_determinism("mobile_geometric", {{"n", "64"}});
}
TEST(TrialPoolDeterminism, EdgeSamplingExpander) {
  check_scenario_determinism("edge_sampling_expander", {{"n", "64"}, {"d", "4"}});
}
TEST(TrialPoolDeterminism, IntermittentExpander) {
  check_scenario_determinism("intermittent_expander", {{"n", "64"}, {"d", "4"}});
}
TEST(TrialPoolDeterminism, TickEngineToo) {
  check_scenario_determinism("dynamic_star", {{"n", "32"}}, EngineKind::async_tick);
}

// Surplus threads flow into intra-trial tiled rate rebuilds (trials <
// threads); the tiling must be value-preserving, so a large-n run with
// parallel rebuilds matches threads=1 bit for bit.
TEST(TrialPoolDeterminism, ParallelRebuildsMatchSerial) {
  ExperimentConfig config;
  config.scenario = "edge_sampling_expander";
  config.param_overrides = {{"n", "20000"}, {"d", "4"}, {"p", "0.5"}};
  config.runner.trials = 2;
  config.runner.seed = 5;
  config.runner.threads = 1;
  const std::vector<SpreadResult> serial = run_collecting(config);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_GT(serial[0].graph_changes, 0);  // rebuilds actually ran

  config.runner.threads = 8;  // 2 trial workers x 4 rebuild threads
  const std::vector<SpreadResult> parallel = run_collecting(config);
  ASSERT_EQ(parallel.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    expect_results_identical(serial[i], parallel[i]);
  }
}

}  // namespace
}  // namespace rumor
