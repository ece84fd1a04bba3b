// Tests for the reproducibility harness (src/repro/): manifest parsing and
// its named failure modes, resolution back through the scenario registry,
// the byte-level record differ, SHA-256 fingerprints, and the replay
// orchestrator — including the fixed-point property that recording a fresh
// sweep and replaying it reproduces both the records and the manifest, for
// one scenario per dynamic family. The CLI half of the same contract
// (exit codes, file handling, option checking) lives in
// scripts/check_replay.sh.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "repro/fingerprint.h"
#include "repro/manifest.h"
#include "repro/record_diff.h"
#include "repro/replay.h"
#include "repro/resolver.h"
#include "scenarios/experiment.h"
#include "support/sha256.h"

namespace rumor {
namespace {

// Records one cell exactly as `rumor_cli --json` would: per-trial records
// plus the closing summary with its manifest.
std::string record_cell(const std::string& scenario,
                        const std::map<std::string, std::string>& params,
                        EngineKind engine, int trials, std::uint64_t seed,
                        int threads = 1) {
  ExperimentConfig config;
  config.scenario = scenario;
  config.param_overrides = params;
  config.runner.engine = engine;
  config.runner.trials = trials;
  config.runner.seed = seed;
  config.runner.threads = threads;
  std::ostringstream os;
  const ExperimentResult result = run_experiment(
      config, [&os](const ExperimentResult& partial, int trial, const SpreadResult& r) {
        emit_trial_json(os, partial, trial, r);
      });
  emit_summary_json(os, result, "test-build");
  return os.str();
}

std::vector<RecordedCell> load(const std::string& text) {
  std::istringstream in(text);
  return load_recording(in);
}

// EXPECT that `fn` throws std::invalid_argument whose message contains every
// needle — the "named, actionable error" contract of the parse/resolve layer.
template <typename Fn>
void expect_named_error(Fn fn, const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "error message missing '" << needle << "': " << what;
    }
  }
}

// --- SHA-256 ----------------------------------------------------------------

TEST(Sha256, Fips180KnownAnswers) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Two-block message (FIPS 180-4 appendix B.2).
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShotAndResets) {
  std::string message;
  for (int i = 0; i < 1000; ++i) message += static_cast<char>('a' + i % 26);

  Sha256 hasher;
  for (std::size_t i = 0; i < message.size(); i += 7) {
    hasher.update(message.substr(i, 7));
  }
  EXPECT_EQ(hasher.hex_digest(), sha256_hex(message));
  // hex_digest resets: the same instance hashes the next message cleanly.
  hasher.update("abc");
  EXPECT_EQ(hasher.hex_digest(), sha256_hex("abc"));
}

// --- manifest parsing -------------------------------------------------------

TEST(Manifest, ParsesRecordedCell) {
  const auto cells = load(record_cell("dynamic_star", {{"n", "32"}},
                                      EngineKind::async_jump, 3, 11));
  ASSERT_EQ(cells.size(), 1u);
  const ReproManifest& m = cells[0].manifest;
  EXPECT_EQ(m.scenario, "dynamic_star");
  ASSERT_EQ(m.params.size(), 1u);
  EXPECT_EQ(m.params[0], (std::pair<std::string, std::string>{"n", "32"}));
  EXPECT_EQ(m.runner.engine, EngineKind::async_jump);
  EXPECT_EQ(m.runner.protocol, Protocol::push_pull);
  EXPECT_EQ(m.runner.trials, 3);
  EXPECT_EQ(m.runner.seed, 11u);
  EXPECT_EQ(m.runner.threads, 1);
  EXPECT_EQ(m.build, "test-build");
  EXPECT_EQ(cells[0].trial_lines.size(), 3u);
}

TEST(Manifest, MissingRequiredFieldIsNamed) {
  std::string recording = record_cell("dynamic_star", {{"n", "16"}},
                                      EngineKind::sync_rounds, 2, 5);
  const std::size_t at = recording.find("\"scenario\":\"dynamic_star\",");
  ASSERT_NE(at, std::string::npos);
  // Erase the manifest's scenario field (the first occurrence after
  // "manifest": is inside it; trial records spell theirs before any summary).
  const std::size_t manifest_at = recording.find("\"manifest\":");
  ASSERT_NE(manifest_at, std::string::npos);
  const std::size_t field_at = recording.find("\"scenario\":\"dynamic_star\",", manifest_at);
  ASSERT_NE(field_at, std::string::npos);
  recording.erase(field_at, std::string("\"scenario\":\"dynamic_star\",").size());
  expect_named_error([&] { load(recording); },
                     {"missing required field 'scenario'"});
}

// Builds that had a multi-process backend recorded its placement columns.
// They never determined the record bytes, but a recording that spells them
// wrong is still corrupt.
TEST(Manifest, LegacyPlacementColumnsKeepTheirNamedErrors) {
  const std::string recording = record_cell("dynamic_star", {{"n", "16"}},
                                            EngineKind::async_jump, 2, 5);
  const auto with_columns = [&](const std::string& columns) {
    std::string out = recording;
    const std::string anchor = "\"chunk_trials\":0,";
    const std::size_t at = out.find(anchor);
    EXPECT_NE(at, std::string::npos);
    out.insert(at + anchor.size(), columns);
    return out;
  };
  expect_named_error([&] { load(with_columns(R"("shards":0,)")); },
                     {"'shards'", "out of range"});
  expect_named_error([&] { load(with_columns(R"("backend":"bogus",)")); },
                     {"'backend'", "bogus", "in-process, sharded"});
}

// Only the identity runner columns are required; a recording made before any
// other column existed parses with that column's RunnerOptions default.
TEST(Manifest, IdentityColumnsAreRequiredAndTheRestDefault) {
  const std::string recording = record_cell("dynamic_star", {{"n", "16"}},
                                            EngineKind::async_jump, 2, 5);
  const std::string summary = recording.substr(recording.find("{\"record\":\"summary\""));
  const auto without = [&](const std::string& field) {
    std::string out = summary;
    const std::size_t at = out.find(field);
    EXPECT_NE(at, std::string::npos) << field;
    return out.erase(at, field.size());
  };
  expect_named_error([&] { parse_manifest(without("\"engine\":\"async-jump\",")); },
                     {"missing required field 'engine'"});
  expect_named_error([&] { parse_manifest(without("\"seed\":5,")); },
                     {"missing required field 'seed'"});
  const ReproManifest m =
      parse_manifest(without("\"clock_rate\":1,\"time_limit\":1e+09,"));
  EXPECT_EQ(m.runner.clock_rate, RunnerOptions{}.clock_rate);
  EXPECT_EQ(m.runner.time_limit, RunnerOptions{}.time_limit);
  EXPECT_EQ(m.runner.seed, 5u);
}

// A recorded source outside NodeId's range is a named parse error, never
// narrowed to another node (2^32 once replayed as source 0).
TEST(Manifest, OutOfRangeSourceIsNamed) {
  const std::string recording = record_cell("dynamic_star", {{"n", "16"}},
                                            EngineKind::async_jump, 2, 5);
  const std::string anchor = "\"source\":-1,";
  ASSERT_NE(recording.find(anchor), std::string::npos);
  for (const std::string source : {"4294967296", "2147483648", "-2"}) {
    std::string edited = recording;
    edited.replace(edited.find(anchor), anchor.size(), "\"source\":" + source + ",");
    expect_named_error([&] { load(edited); }, {"'source'", "out of range", source});
  }
}

TEST(Manifest, TruncatedTrialRecordsAreDetected) {
  std::string recording = record_cell("clique_bridge", {{"n", "16"}},
                                      EngineKind::async_jump, 3, 5);
  // Drop the first trial line entirely.
  recording.erase(0, recording.find('\n') + 1);
  expect_named_error([&] { load(recording); },
                     {"truncated records", "2 trial records", "promises 3"});
}

TEST(Manifest, DanglingTrialsAndEmptyStreamsAreErrors) {
  const std::string cell = record_cell("dynamic_star", {{"n", "16"}},
                                       EngineKind::async_jump, 2, 5);
  const std::string trial_line = cell.substr(0, cell.find('\n') + 1);
  expect_named_error([&] { load(cell + trial_line); }, {"after the last summary"});
  expect_named_error([&] { load("{\"record\":\"microbench\",\"x\":1}\n"); },
                     {"not a recorded sweep"});
  expect_named_error([&] { load("this is not jsonl\n"); }, {"line 1"});
}

// --- resolver ---------------------------------------------------------------

TEST(Resolver, RoundTripsThroughTheRegistry) {
  const auto cells = load(record_cell("edge_markovian",
                                      {{"n", "32"}, {"p", "0.01"}, {"q", "0.2"}},
                                      EngineKind::async_jump, 2, 9));
  ASSERT_EQ(cells.size(), 1u);
  const ExperimentConfig config = resolve_manifest(cells[0].manifest);
  EXPECT_EQ(config.scenario, "edge_markovian");
  EXPECT_EQ(config.runner.engine, EngineKind::async_jump);
  EXPECT_EQ(config.runner.trials, 2);
  EXPECT_EQ(config.runner.seed, 9u);
  EXPECT_EQ(config.param_overrides.at("p"), "0.01");
}

TEST(Resolver, UnknownScenarioAndBadParamsAreNamed) {
  ReproManifest m;
  m.scenario = "no_such_scenario";
  m.runner.trials = 1;
  expect_named_error([&] { resolve_manifest(m); }, {"no_such_scenario"});

  m.scenario = "dynamic_star";
  m.params = {{"n", "16"}, {"bogus_param", "3"}};
  expect_named_error([&] { resolve_manifest(m); }, {"bogus_param"});

  m.params = {{"n", "016"}};  // resolves to a different spelling than recorded
  expect_named_error([&] { resolve_manifest(m); }, {"round-trip"});
}

TEST(Resolver, ManifestDivergenceNamesFirstField) {
  const auto cells = load(record_cell("dynamic_star", {{"n", "16"}},
                                      EngineKind::async_jump, 2, 5));
  ReproManifest a = cells[0].manifest;
  ReproManifest b = a;
  EXPECT_EQ(manifest_divergence(a, b), "");
  b.build = "some-other-build";  // provenance: excluded from the comparison
  EXPECT_EQ(manifest_divergence(a, b), "");
  b.runner.seed = 6;
  EXPECT_EQ(manifest_divergence(a, b), "seed");
  b = a;
  b.params[0].second = "17";
  EXPECT_EQ(manifest_divergence(a, b), "params");
}

// --- record differ ----------------------------------------------------------

TEST(RecordDiff, IdenticalStreams) {
  const std::vector<std::string> lines = {R"({"record":"trial","trial":0,"x":1})",
                                          R"({"record":"trial","trial":1,"x":2})"};
  const RecordDivergence d = diff_records(lines, lines);
  EXPECT_TRUE(d.identical);
}

TEST(RecordDiff, NamesTrialFieldAndBothValues) {
  const std::vector<std::string> recorded = {
      R"({"record":"trial","trial":0,"spread_time":1.5,"contacts":7})",
      R"({"record":"trial","trial":1,"spread_time":2.5,"contacts":9})"};
  std::vector<std::string> replayed = recorded;
  replayed[1] = R"({"record":"trial","trial":1,"spread_time":2.5,"contacts":8})";
  const RecordDivergence d = diff_records(recorded, replayed);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.trial, 1);
  EXPECT_EQ(d.field, "contacts");
  EXPECT_EQ(d.expected, "9");
  EXPECT_EQ(d.actual, "8");
  EXPECT_NE(d.message.find("trial 1"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("contacts"), std::string::npos) << d.message;
}

TEST(RecordDiff, CountMismatchNamesFirstMissingTrial) {
  const std::vector<std::string> recorded = {
      R"({"record":"trial","trial":0,"x":1})", R"({"record":"trial","trial":1,"x":2})"};
  const std::vector<std::string> replayed = {recorded[0]};
  const RecordDivergence d = diff_records(recorded, replayed);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.field, "record_count");
  EXPECT_NE(d.message.find("trial 1"), std::string::npos) << d.message;
}

// --- fingerprints -----------------------------------------------------------

TEST(Fingerprint, HasherMatchesOneShotAndEmitsRecordLine) {
  const std::vector<std::string> lines = {"alpha", "beta"};
  RecordHasher hasher;
  for (const std::string& line : lines) hasher.add(line);
  EXPECT_EQ(hasher.records(), 2);
  const std::string digest = hasher.finish();
  EXPECT_EQ(digest, fingerprint_records(lines));
  EXPECT_EQ(digest, sha256_hex("alpha\nbeta\n"));
  EXPECT_EQ(hasher.records(), 0);  // finish resets

  ReproManifest m;
  m.scenario = "dynamic_star";
  m.params = {{"n", "16"}};
  m.runner.trials = 2;
  m.runner.seed = 5;
  m.runner.threads = 4;  // the execution topology never reaches the record
  m.build = "test-build";
  std::ostringstream os;
  emit_fingerprint_json(os, m, digest);
  EXPECT_EQ(os.str(), "{\"record\":\"fingerprint\",\"scenario\":\"dynamic_star\","
                      "\"params\":{\"n\":\"16\"},\"engine\":\"async-jump\","
                      "\"protocol\":\"push-pull\",\"trials\":2,\"seed\":5,"
                      "\"sha256\":\"" + digest + "\"}\n");
}

TEST(Fingerprint, InvariantToThreadCount) {
  const auto serial = load(record_cell("edge_markovian",
                                       {{"n", "64"}, {"p", "0.05"}, {"q", "0.3"}},
                                       EngineKind::async_jump, 4, 3, /*threads=*/1));
  const auto threaded = load(record_cell("edge_markovian",
                                         {{"n", "64"}, {"p", "0.05"}, {"q", "0.3"}},
                                         EngineKind::async_jump, 4, 3, /*threads=*/4));
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(threaded.size(), 1u);
  EXPECT_EQ(fingerprint_records(serial[0].trial_lines),
            fingerprint_records(threaded[0].trial_lines));
}

// --- replay: the record -> replay fixed point -------------------------------

// One scenario per dynamic family (plus a static control): recording a fresh
// run and replaying the recording must reproduce every record byte and leave
// the manifest a fixed point. This is the property the golden suites rely on.
struct FixedPointCase {
  const char* scenario;
  std::map<std::string, std::string> params;
};

class ReplayFixedPoint : public ::testing::TestWithParam<FixedPointCase> {};

TEST_P(ReplayFixedPoint, RecordThenReplayIsIdentical) {
  const FixedPointCase& c = GetParam();
  for (const EngineKind engine : {EngineKind::async_jump, EngineKind::sync_rounds}) {
    const std::string recording = record_cell(c.scenario, c.params, engine, 3, 7);
    const auto cells = load(recording);
    ASSERT_EQ(cells.size(), 1u);
    std::ostringstream diag;
    const ReplayReport report = replay_recording(cells, ReplayOptions{}, diag);
    EXPECT_TRUE(report.ok) << c.scenario << ": " << diag.str();
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_TRUE(report.cells[0].divergence.identical)
        << c.scenario << ": " << report.cells[0].divergence.message;
    EXPECT_EQ(report.cells[0].manifest_field, "") << c.scenario;
    EXPECT_EQ(report.cells[0].fingerprint,
              fingerprint_records(cells[0].trial_lines));
    EXPECT_EQ(report.trials, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DynamicFamilies, ReplayFixedPoint,
    ::testing::Values(
        FixedPointCase{"static_clique", {{"n", "48"}}},
        FixedPointCase{"dynamic_star", {{"n", "48"}}},
        FixedPointCase{"clique_bridge", {{"n", "48"}}},
        FixedPointCase{"edge_markovian", {{"n", "48"}, {"p", "0.05"}, {"q", "0.3"}}},
        FixedPointCase{"mobile_geometric", {{"n", "48"}}},
        FixedPointCase{"edge_sampling_expander", {{"n", "48"}, {"d", "4"}}},
        FixedPointCase{"intermittent_expander", {{"n", "48"}}},
        FixedPointCase{"diligent_adversary", {{"n", "128"}}},
        FixedPointCase{"absolute_adversary", {{"n", "128"}}}),
    [](const ::testing::TestParamInfo<FixedPointCase>& tpi) {
      return std::string(tpi.param.scenario);
    });

// --- replay: failure paths --------------------------------------------------

TEST(Replay, PerturbedRecordDivergesNamingTrialAndField) {
  const std::string recording = record_cell("dynamic_star", {{"n", "32"}},
                                            EngineKind::async_jump, 3, 11);
  auto cells = load(recording);
  ASSERT_EQ(cells.size(), 1u);
  std::string& line = cells[0].trial_lines[1];
  const std::size_t at = line.find("\"spread_time\":");
  ASSERT_NE(at, std::string::npos);
  line.replace(at, std::string("\"spread_time\":").size(), "\"spread_time\":-");
  std::ostringstream diag;
  const ReplayReport report = replay_recording(cells, ReplayOptions{}, diag);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.cells.size(), 1u);
  const RecordDivergence& d = report.cells[0].divergence;
  EXPECT_EQ(d.trial, 1);
  EXPECT_EQ(d.field, "spread_time");
  EXPECT_NE(diag.str().find("DIVERGED"), std::string::npos) << diag.str();
}

TEST(Replay, StrictBuildMismatchIsANamedError) {
  const auto cells = load(record_cell("dynamic_star", {{"n", "16"}},
                                      EngineKind::async_jump, 2, 5));
  ReplayOptions options;
  options.strict_build = true;
  options.build_info = "a-different-build";
  std::ostringstream diag;
  expect_named_error([&] { replay_recording(cells, options, diag); },
                     {"build", "test-build", "a-different-build"});
}

// A cell recorded through the removed multi-process backend (its summary
// carries backend/shards/worker_cmd/worker_peak_rss_mb, as BENCH_6 does)
// replays in-process, byte for byte, with the manifest still a fixed point.
TEST(Replay, LegacyShardedRecordingReplaysInProcess) {
  std::string recording = record_cell("edge_markovian",
                                      {{"n", "48"}, {"p", "0.05"}, {"q", "0.3"}},
                                      EngineKind::async_jump, 4, 13, /*threads=*/2);
  const std::string anchor = "\"chunk_trials\":0,";
  const std::size_t at = recording.find(anchor);
  ASSERT_NE(at, std::string::npos);
  recording.insert(at + anchor.size(),
                   R"("backend":"sharded","shards":2,)"
                   R"("worker_cmd":"rumor_cli --scenario edge_markovian --n 48",)"
                   R"("worker_peak_rss_mb":75.9,)");
  const auto cells = load(recording);
  ASSERT_EQ(cells.size(), 1u);
  std::ostringstream diag;
  const ReplayReport report = replay_recording(cells, ReplayOptions{}, diag);
  EXPECT_TRUE(report.ok) << diag.str();
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_TRUE(report.cells[0].divergence.identical) << report.cells[0].divergence.message;
  EXPECT_EQ(report.cells[0].manifest_field, "");
  EXPECT_EQ(report.trials, 4);
}

TEST(Replay, TopologyOverrideStillMatchesRecordedBytes) {
  const std::string recording = record_cell("edge_markovian",
                                            {{"n", "48"}, {"p", "0.05"}, {"q", "0.3"}},
                                            EngineKind::async_jump, 4, 13);
  const auto cells = load(recording);
  ReplayOptions options;
  options.threads_override = 4;
  std::ostringstream diag;
  const ReplayReport report = replay_recording(cells, options, diag);
  EXPECT_TRUE(report.ok) << diag.str();
}

// BENCH-style streams carry other record kinds around the cells; the loader
// skips them without losing cell grouping.
TEST(Replay, LoaderSkipsForeignRecordKinds) {
  const std::string recording = record_cell("dynamic_star", {{"n", "16"}},
                                            EngineKind::async_jump, 2, 5);
  const std::string wrapped = "{\"record\":\"scenario_matrix\",\"cells\":3}\n" +
                              recording +
                              "{\"record\":\"perf_counters\",\"ipc\":1.5}\n";
  const auto cells = load(wrapped);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].trial_lines.size(), 2u);
}

}  // namespace
}  // namespace rumor
