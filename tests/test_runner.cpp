// Tests for the multi-trial runner.
#include <gtest/gtest.h>

#include <cmath>

#include "bounds/constants.h"
#include "core/runner.h"
#include "dynamic/dynamic_star.h"
#include "dynamic/simple_networks.h"
#include "graph/builders.h"

namespace rumor {
namespace {

NetworkFactory clique_factory(NodeId n) {
  return [n](std::uint64_t) { return std::make_unique<StaticNetwork>(make_clique(n)); };
}

TEST(Runner, RunsRequestedTrials) {
  RunnerOptions opt;
  opt.trials = 7;
  const auto report = run_trials(clique_factory(16), opt);
  EXPECT_EQ(report.trials, 7);
  EXPECT_EQ(report.completed, 7);
  EXPECT_EQ(report.spread_time.count(), 7u);
  EXPECT_DOUBLE_EQ(report.completion_rate(), 1.0);
}

TEST(Runner, DeterministicForSeed) {
  RunnerOptions opt;
  opt.trials = 5;
  opt.seed = 42;
  const auto a = run_trials(clique_factory(16), opt);
  const auto b = run_trials(clique_factory(16), opt);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(a.spread_time.values()[i], b.spread_time.values()[i]);
}

TEST(Runner, DifferentSeedsDiffer) {
  RunnerOptions opt;
  opt.trials = 5;
  opt.seed = 1;
  const auto a = run_trials(clique_factory(16), opt);
  opt.seed = 2;
  const auto b = run_trials(clique_factory(16), opt);
  EXPECT_NE(a.spread_time.mean(), b.spread_time.mean());
}

TEST(Runner, UsesSuggestedSource) {
  // The dynamic star suggests leaf 1; the runner must complete from there.
  RunnerOptions opt;
  opt.trials = 3;
  const auto report = run_trials(
      [](std::uint64_t seed) { return std::make_unique<DynamicStarNetwork>(12, seed); }, opt);
  EXPECT_EQ(report.completed, 3);
}

TEST(Runner, ExplicitSourceOverride) {
  RunnerOptions opt;
  opt.trials = 3;
  opt.source = 5;
  const auto report = run_trials(clique_factory(16), opt);
  EXPECT_EQ(report.completed, 3);
}

TEST(Runner, SyncEngineSelectable) {
  RunnerOptions opt;
  opt.engine = EngineKind::sync_rounds;
  opt.trials = 4;
  const auto report = run_trials(clique_factory(16), opt);
  EXPECT_EQ(report.completed, 4);
  for (double t : report.spread_time.values()) EXPECT_EQ(t, std::floor(t));
}

TEST(Runner, FloodingEngineSelectable) {
  RunnerOptions opt;
  opt.engine = EngineKind::flooding;
  opt.trials = 2;
  const auto report = run_trials(clique_factory(16), opt);
  EXPECT_EQ(report.completed, 2);
  EXPECT_DOUBLE_EQ(report.spread_time.mean(), 1.0);
}

TEST(Runner, TickEngineSelectable) {
  RunnerOptions opt;
  opt.engine = EngineKind::async_tick;
  opt.trials = 3;
  const auto report = run_trials(clique_factory(12), opt);
  EXPECT_EQ(report.completed, 3);
}

TEST(Runner, BoundTrackingProducesCrossings) {
  // On the dynamic star (Φ·ρ = 1 and ρ̄ = 1 per step), both thresholds cross
  // at deterministic steps: T11 = ceil(C(c) ln n) - 1, T13 = 2n - 1.
  RunnerOptions opt;
  opt.trials = 3;
  opt.track_bounds = true;
  const NodeId leaves = 12;
  const auto report = run_trials(
      [](std::uint64_t seed) { return std::make_unique<DynamicStarNetwork>(12, seed); }, opt);
  ASSERT_EQ(report.theorem11_crossing.count(), 3u);
  ASSERT_EQ(report.theorem13_crossing.count(), 3u);
  const NodeId n = leaves + 1;
  const double t11_expected = std::ceil(theorem11_threshold(n, 1.0)) - 1.0;
  EXPECT_NEAR(report.theorem11_crossing.mean(), t11_expected, 1.0);
  EXPECT_DOUBLE_EQ(report.theorem13_crossing.mean(), 2.0 * n - 1.0);
}

TEST(Runner, BoundTrackingFollowsEveryEngine) {
  // The runner feeds the tracker from the network each engine steps, so the
  // flooding baseline tracks too, and its continuation resumes at the step
  // the run stopped at instead of rewinding the network to t = 0.
  const NodeId n = 13;
  for (const EngineKind engine : {EngineKind::async_jump, EngineKind::async_tick,
                                  EngineKind::sync_rounds, EngineKind::flooding}) {
    RunnerOptions opt;
    opt.engine = engine;
    opt.trials = 2;
    opt.track_bounds = true;
    const auto report = run_trials(
        [](std::uint64_t seed) { return std::make_unique<DynamicStarNetwork>(12, seed); }, opt);
    EXPECT_EQ(report.completed, 2) << to_string(engine);
    ASSERT_EQ(report.theorem11_crossing.count(), 2u) << to_string(engine);
    EXPECT_GE(report.theorem11_crossing.min(), 0.0) << to_string(engine);
    EXPECT_DOUBLE_EQ(report.theorem13_crossing.mean(), 2.0 * n - 1.0) << to_string(engine);
  }
}

TEST(Runner, IncompleteRunsCounted) {
  // Disconnected network: no trial completes.
  RunnerOptions opt;
  opt.trials = 3;
  opt.time_limit = 5.0;
  const auto report = run_trials(
      [](std::uint64_t) { return std::make_unique<StaticNetwork>(Graph(4, {{0, 1}, {2, 3}})); },
      opt);
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.spread_time.count(), 0u);
  EXPECT_DOUBLE_EQ(report.completion_rate(), 0.0);
}

TEST(Runner, RejectsZeroTrials) {
  RunnerOptions opt;
  opt.trials = 0;
  EXPECT_THROW(run_trials(clique_factory(4), opt), std::invalid_argument);
}

TEST(EngineKindNames, AllDistinct) {
  EXPECT_EQ(to_string(EngineKind::async_jump), "async-jump");
  EXPECT_EQ(to_string(EngineKind::async_tick), "async-tick");
  EXPECT_EQ(to_string(EngineKind::sync_rounds), "sync");
  EXPECT_EQ(to_string(EngineKind::flooding), "flooding");
}


// Bitwise equality of every aggregated field, in trial order: the runner
// promises results identical to the serial run for the same seed.
void expect_reports_identical(const RunnerReport& a, const RunnerReport& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.completed, b.completed);
  const std::pair<const SampleSet*, const SampleSet*> sets[] = {
      {&a.spread_time, &b.spread_time},
      {&a.informative_contacts, &b.informative_contacts},
      {&a.theorem11_crossing, &b.theorem11_crossing},
      {&a.theorem13_crossing, &b.theorem13_crossing},
  };
  for (const auto& [sa, sb] : sets) {
    ASSERT_EQ(sa->count(), sb->count());
    for (std::size_t i = 0; i < sa->count(); ++i) {
      EXPECT_DOUBLE_EQ(sa->values()[i], sb->values()[i]);
    }
  }
}

TEST(Runner, ParallelMatchesSerial) {
  RunnerOptions opt;
  opt.trials = 8;
  opt.seed = 99;
  const auto serial = run_trials(clique_factory(24), opt);
  opt.threads = 4;
  const auto parallel = run_trials(clique_factory(24), opt);
  expect_reports_identical(serial, parallel);
}

TEST(Runner, ParallelMatchesSerialWithBoundTracking) {
  // The adaptive dynamic star exercises the per-trial network factory, the
  // bound tracker, and the post-completion continuation under threading.
  RunnerOptions opt;
  opt.trials = 8;
  opt.seed = 7;
  opt.track_bounds = true;
  const auto factory = [](std::uint64_t seed) {
    return std::make_unique<DynamicStarNetwork>(16, seed);
  };
  const auto serial = run_trials(factory, opt);
  opt.threads = 4;
  const auto parallel = run_trials(factory, opt);
  expect_reports_identical(serial, parallel);
}

TEST(Runner, MoreThreadsThanTrials) {
  // Workers are clamped to the trial count (surplus threads feed intra-trial
  // rebuilds); results must stay identical to the serial run even when the
  // requested thread count dwarfs the trials.
  RunnerOptions opt;
  opt.trials = 3;
  opt.seed = 5;
  const auto serial = run_trials(clique_factory(12), opt);
  for (int threads : {8, 64}) {
    opt.threads = threads;
    const auto parallel = run_trials(clique_factory(12), opt);
    expect_reports_identical(serial, parallel);
  }
}

TEST(Runner, RejectsAbsurdThreadCounts) {
  // Beyond the pool cap is a misconfiguration, reported with a helpful
  // message instead of silently spawning hundreds of idle workers.
  RunnerOptions opt;
  opt.trials = 2;
  opt.threads = 513;
  try {
    run_trials(clique_factory(8), opt);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("threads=513"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("512"), std::string::npos);
  }
}

TEST(Runner, ParallelWithBoundTracking) {
  RunnerOptions opt;
  opt.trials = 6;
  opt.threads = 3;
  opt.track_bounds = true;
  const auto report = run_trials(
      [](std::uint64_t seed) { return std::make_unique<DynamicStarNetwork>(16, seed); }, opt);
  EXPECT_EQ(report.completed, 6);
  EXPECT_EQ(report.theorem13_crossing.count(), 6u);
}

TEST(Runner, FailureProbPassesThroughToEngines) {
  RunnerOptions opt;
  opt.trials = 10;
  opt.seed = 17;
  const double clean = run_trials(clique_factory(32), opt).spread_time.mean();
  opt.transmission_failure_prob = 0.8;
  const double lossy = run_trials(clique_factory(32), opt).spread_time.mean();
  EXPECT_GT(lossy, clean);

  opt.engine = EngineKind::sync_rounds;
  opt.transmission_failure_prob = 0.0;
  const double sync_clean = run_trials(clique_factory(32), opt).spread_time.mean();
  opt.transmission_failure_prob = 0.8;
  const double sync_lossy = run_trials(clique_factory(32), opt).spread_time.mean();
  EXPECT_GT(sync_lossy, sync_clean);
}

TEST(Runner, RejectsZeroThreads) {
  RunnerOptions opt;
  opt.threads = 0;
  EXPECT_THROW(run_trials(clique_factory(4), opt), std::invalid_argument);
}

TEST(Runner, TrialSinkStreamsInTrialOrder) {
  RunnerOptions opt;
  opt.trials = 9;
  opt.seed = 21;
  opt.threads = 4;
  opt.chunk_trials = 2;  // force several chunks
  std::vector<int> order;
  std::vector<double> times;
  opt.trial_sink = [&](int trial, const SpreadResult& r) {
    order.push_back(trial);
    times.push_back(r.spread_time);
  };
  const auto report = run_trials(clique_factory(16), opt);
  ASSERT_EQ(order.size(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  ASSERT_EQ(report.completed, 9);  // so spread_time holds every trial, in order
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_DOUBLE_EQ(times[i], report.spread_time.values()[i]);
  }
}

TEST(Runner, ChunkingDoesNotChangeResults) {
  RunnerOptions opt;
  opt.trials = 10;
  opt.seed = 77;
  opt.threads = 3;
  const auto whole = run_trials(clique_factory(16), opt);
  opt.chunk_trials = 3;
  const auto chunked = run_trials(clique_factory(16), opt);
  expect_reports_identical(whole, chunked);
}

TEST(Runner, ProgressReportsEveryChunk) {
  RunnerOptions opt;
  opt.trials = 7;
  opt.chunk_trials = 3;
  std::vector<std::pair<int, int>> calls;
  opt.progress = [&](int done, int total) { calls.emplace_back(done, total); };
  run_trials(clique_factory(8), opt);
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0], std::make_pair(3, 7));
  EXPECT_EQ(calls[1], std::make_pair(6, 7));
  EXPECT_EQ(calls[2], std::make_pair(7, 7));
}

}  // namespace
}  // namespace rumor
