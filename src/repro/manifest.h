// The reproducibility manifest, parsed: the typed form of the "manifest"
// object every {"record":"summary"} line carries, plus the loader that groups
// a recorded JSON-lines stream (rumor_cli --json output, BENCH_*.json
// snapshots) into cells of byte-preserved trial records with their manifest.
//
// A manifest is a scenario, its params and a RunnerOptions whose recorded
// fields are the columns of the one list in scenarios/experiment.h
// (for_each_runner_column): write_manifest writes them and parse_manifest
// reads them, each by its name, type and range. Together they determine the
// per-trial record bytes (docs/ARCHITECTURE.md, "The reproducibility
// harness"). Parsing requires the scenario, params and identity columns and
// defaults the rest, so a recording made before a column existed stays
// replayable. The legacy backend/shards/worker_cmd columns of builds that
// had a multi-process backend are validated and dropped: trial placement
// never reached the record bytes.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"

namespace rumor {

struct ReproManifest {
  std::string scenario;
  std::vector<std::pair<std::string, std::string>> params;  // recorded order
  RunnerOptions runner;  // the runner columns; the rest keep their defaults
  std::string build;     // provenance: git-describe id of the recording build
};

// Parses the manifest out of one {"record":"summary"} line. Throws
// std::invalid_argument naming the missing, malformed or out-of-range field,
// so a corrupted recording fails with an actionable message instead of
// replaying garbage.
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
