// Tests for the execution layer (src/exec/): the counter-based trial_offset
// contract that makes a batch split into offset sub-batches reproduce the
// full run, the records' invariance to threads and chunk size, the execution
// topology the manifest records.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/in_process_backend.h"
#include "graph/builders.h"
#include "dynamic/simple_networks.h"
#include "scenarios/experiment.h"

namespace rumor {
namespace {

NetworkFactory clique_factory(NodeId n) {
  return [n](std::uint64_t) { return std::make_unique<StaticNetwork>(make_clique(n)); };
}

// --- the trial_offset contract ---------------------------------------------

TEST(TrialSeeds, PureAndDistinctPerTrial) {
  EXPECT_EQ(trial_seeds(77, 5), trial_seeds(77, 5));  // pure function of (base, i)
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    const auto [net, engine] = trial_seeds(77, i);
    EXPECT_NE(net, engine);
    seen.insert(net);
    seen.insert(engine);
  }
  EXPECT_EQ(seen.size(), 128u);  // no collisions across streams either
}

// Batch placement must be invisible in the records: running [0, 9) in one
// batch and as offset sub-batches [0, 4) + [4, 9) must stream identical
// (trial, result) sequences, because seeds are counter-based on the global
// index.
TEST(InProcessBackend, TrialOffsetSplitMatchesFullRun) {
  const auto run_range = [](int offset, int count,
                            std::vector<std::pair<int, double>>* out) {
    RunnerOptions opt;
    opt.trials = count;
    opt.trial_offset = offset;
    opt.seed = 31;
    opt.trial_sink = [out](int trial, const SpreadResult& r) {
      out->emplace_back(trial, r.spread_time);
    };
    run_trials(clique_factory(20), opt);
  };
  std::vector<std::pair<int, double>> full, split;
  run_range(0, 9, &full);
  run_range(0, 4, &split);
  run_range(4, 5, &split);
  ASSERT_EQ(full.size(), 9u);
  ASSERT_EQ(split.size(), 9u);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].first, static_cast<int>(i));
    EXPECT_EQ(split[i].first, full[i].first);
    EXPECT_DOUBLE_EQ(split[i].second, full[i].second);
  }
}

// Per-trial records are invariant to the whole execution topology the
// manifest records: threads and chunk_trials.
TEST(InProcessBackend, RecordsInvariantToThreadsAndChunk) {
  const auto emit_records = [](int threads, int chunk) {
    ExperimentConfig config;
    config.scenario = "static_clique";
    config.param_overrides = {{"n", "24"}};
    config.runner.trials = 6;
    config.runner.seed = 17;
    config.runner.threads = threads;
    config.runner.chunk_trials = chunk;
    std::ostringstream os;
    run_experiment(config, [&os](const ExperimentResult& r, int trial,
                                 const SpreadResult& t) {
      emit_trial_json(os, r, trial, t);
    });
    return os.str();
  };
  const std::string reference = emit_records(1, 0);
  EXPECT_FALSE(reference.empty());
  for (const auto& [threads, chunk] :
       std::vector<std::pair<int, int>>{{4, 0}, {1, 2}, {4, 3}}) {
    EXPECT_EQ(emit_records(threads, chunk), reference)
        << "records changed under threads=" << threads << " chunk=" << chunk;
  }
}

TEST(Manifest, RecordsExecutionTopology) {
  ExperimentConfig config;
  config.scenario = "static_clique";
  config.param_overrides = {{"n", "16"}};
  config.runner.trials = 2;
  config.runner.threads = 3;
  config.runner.chunk_trials = 5;
  std::ostringstream os;
  emit_summary_json(os, run_experiment(config), "test-build");
  const std::string summary = os.str();
  EXPECT_NE(summary.find("\"threads\":3"), std::string::npos);
  EXPECT_NE(summary.find("\"chunk_trials\":5"), std::string::npos);
  // One execution path: no placement columns beyond threads and chunk.
  EXPECT_EQ(summary.find("\"backend\""), std::string::npos);
  EXPECT_EQ(summary.find("\"shards\""), std::string::npos);
  EXPECT_EQ(summary.find("\"worker_cmd\""), std::string::npos);
}

}  // namespace
}  // namespace rumor
