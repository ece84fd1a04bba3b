// The reproducibility manifest, parsed: the typed form of the "manifest"
// object every {"record":"summary"} line carries (scenarios/experiment.h
// write_manifest), plus the loader that groups a recorded JSON-lines stream
// (rumor_cli --json output, BENCH_*.json snapshots) into cells of byte-
// preserved trial records with their closing manifest.
//
// The manifest is the contract of the replay harness: a (scenario, params,
// engine, protocol, trials, seed, runner options) tuple fully determines the
// per-trial record bytes, and the execution-topology fields (threads, chunk)
// reproduce the placement without affecting the bytes (docs/ARCHITECTURE.md,
// "The reproducibility harness"). Parsing is strict about the
// record-determining fields — a recording that lost its scenario or trial
// count cannot be replayed honestly — and defaults the topology and telemetry
// fields so older snapshots (recorded before a column existed) stay
// replayable. Recordings from builds that had a multi-process backend also
// carry backend/shards/worker_cmd columns; they are validated and dropped,
// since trial placement never reached the record bytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace rumor {

struct ReproManifest {
  // Record-determining fields; parse_manifest requires these.
  std::string scenario;
  std::vector<std::pair<std::string, std::string>> params;  // recorded order
  std::string engine;
  std::string protocol;
  int trials = 0;
  std::uint64_t seed = 1;

  // Record-determining runner options, defaulted to RunnerOptions' defaults
  // when a column predates the recording.
  double clock_rate = 1.0;
  double time_limit = 1e9;
  std::int64_t round_limit = 1'000'000;
  bool track_bounds = false;
  double bound_c = 1.0;
  std::int64_t bound_continuation_cap = 50'000'000;
  double transmission_failure_prob = 0.0;
  std::int64_t source = -1;

  // Execution topology: reproduced on replay, provably irrelevant to the
  // record bytes.
  int threads = 1;
  int chunk_trials = 0;

  // Provenance/telemetry: reported, never reproduced.
  std::string build;  // git-describe id of the recording build
};

// Parses the manifest out of one {"record":"summary"} line. Throws
// std::invalid_argument naming the missing or malformed field, so a corrupted
// recording fails with an actionable message instead of replaying garbage.
ReproManifest parse_manifest(const std::string& summary_line);

// One recorded grid cell: the trial record lines exactly as recorded (bytes
// preserved, trial order) plus the summary manifest that determines them.
struct RecordedCell {
  ReproManifest manifest;
  std::string summary_line;
  std::vector<std::string> trial_lines;
};

// Groups a recorded JSON-lines stream into cells: trial records accumulate
// until the {"record":"summary"} line that closes their cell. Records of
// other kinds (scenario_matrix, microbench, perf_counters, fingerprint) are
// skipped, so BENCH_*.json snapshots load as-is. Throws std::invalid_argument
// on streams that cannot be replayed: no summary record at all, trial records
// left dangling after the last summary, a cell whose trial-record count
// disagrees with its manifest's trial count (truncated records), or a line
// that is not a JSON-lines record (truncation evidence mid-line).
std::vector<RecordedCell> load_recording(std::istream& in);

}  // namespace rumor
