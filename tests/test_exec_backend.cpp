// Tests for the execution layer (src/exec/): the counter-based trial_offset
// contract that makes a batch split into offset sub-batches reproduce the
// full run, the records' invariance to threads and chunk size, the execution
// topology the manifest records, and the support/jsonl framing and scanners.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/in_process_backend.h"
#include "graph/builders.h"
#include "dynamic/simple_networks.h"
#include "scenarios/experiment.h"
#include "support/json.h"
#include "support/jsonl.h"

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

// --- support/jsonl ----------------------------------------------------------

TEST(Jsonl, ScannersExtractTopLevelFields) {
  const std::string line =
      "{\"record\":\"trial\",\"scenario\":\"edge_markovian\",\"trial\":42,"
      "\"completed\":true,\"spread_time\":19.425733953796847,"
      "\"theorem11_crossing\":-1}";
  std::string s;
  std::int64_t i = 0;
  double d = 0;
  bool b = false;
  EXPECT_TRUE(jsonl_get_string(line, "record", &s));
  EXPECT_EQ(s, "trial");
  EXPECT_TRUE(jsonl_get_string(line, "scenario", &s));
  EXPECT_EQ(s, "edge_markovian");
  EXPECT_TRUE(jsonl_get_int(line, "trial", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(jsonl_get_int(line, "theorem11_crossing", &i));
  EXPECT_EQ(i, -1);
  EXPECT_TRUE(jsonl_get_bool(line, "completed", &b));
  EXPECT_TRUE(b);
  // The parsed double must round-trip the record's bits exactly.
  EXPECT_TRUE(jsonl_get_double(line, "spread_time", &d));
  EXPECT_EQ(json_number(d), "19.425733953796847");
  EXPECT_FALSE(jsonl_get_int(line, "absent", &i));
  EXPECT_FALSE(jsonl_get_bool(line, "trial", &b));
}

TEST(Jsonl, LineReaderFramesAndKeepsPartialTail) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const char* payload = "{\"a\":1}\n{\"b\":2}\n{\"trunc";
  ASSERT_EQ(write(fds[1], payload, strlen(payload)),
            static_cast<ssize_t>(strlen(payload)));
  close(fds[1]);
  LineReader reader(fds[0]);
  std::vector<std::string> lines;
  while (reader.drain(lines)) {
  }
  close(fds[0]);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "{\"b\":2}");
  EXPECT_TRUE(reader.eof());
  EXPECT_EQ(reader.partial(), "{\"trunc");
}

}  // namespace
}  // namespace rumor
