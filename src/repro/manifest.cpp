#include "repro/manifest.h"

#include <istream>

#include "support/contracts.h"
#include "support/jsonl.h"

namespace rumor {

namespace {

// Required-field accessors: a manifest that lost a record-determining field
// is corrupt, and the error must say which field and why it matters.
std::string require_string(const std::string& object, const std::string& key) {
  std::string value;
  DG_REQUIRE(jsonl_get_string(object, key, &value),
             "manifest is missing required field '" + key +
                 "' (corrupted or pre-manifest recording)");
  return value;
}

std::int64_t require_int(const std::string& object, const std::string& key) {
  std::int64_t value = 0;
  DG_REQUIRE(jsonl_get_int(object, key, &value),
             "manifest is missing required field '" + key +
                 "' (corrupted or pre-manifest recording)");
  return value;
}

}  // namespace

ReproManifest parse_manifest(const std::string& summary_line) {
  std::string object;
  DG_REQUIRE(jsonl_get_object(summary_line, "manifest", &object),
             "record carries no \"manifest\":{...} object — not a summary record, "
             "or the manifest was truncated");

  ReproManifest m;
  m.scenario = require_string(object, "scenario");
  m.engine = require_string(object, "engine");
  m.protocol = require_string(object, "protocol");
  const std::int64_t trials = require_int(object, "trials");
  DG_REQUIRE(trials >= 1 && trials <= 1'000'000'000,
             "manifest field 'trials' is out of range: " + std::to_string(trials));
  m.trials = static_cast<int>(trials);
  DG_REQUIRE(jsonl_get_uint(object, "seed", &m.seed),
             "manifest is missing required field 'seed' "
             "(corrupted or pre-manifest recording)");

  std::string params_object;
  DG_REQUIRE(jsonl_get_object(object, "params", &params_object),
             "manifest is missing its \"params\":{...} object");
  DG_REQUIRE(jsonl_object_items(params_object, &m.params),
             "manifest params are not a flat object of name/value pairs: " +
                 params_object);

  // Optional columns keep their RunnerOptions defaults when absent, so
  // recordings made before a column existed replay under the same semantics
  // they were recorded under.
  jsonl_get_double(object, "clock_rate", &m.clock_rate);
  jsonl_get_double(object, "time_limit", &m.time_limit);
  jsonl_get_int(object, "round_limit", &m.round_limit);
  jsonl_get_bool(object, "track_bounds", &m.track_bounds);
  jsonl_get_double(object, "bound_c", &m.bound_c);
  jsonl_get_int(object, "bound_continuation_cap", &m.bound_continuation_cap);
  jsonl_get_double(object, "transmission_failure_prob", &m.transmission_failure_prob);
  jsonl_get_int(object, "source", &m.source);

  std::int64_t threads = 1, chunk = 0;
  jsonl_get_int(object, "threads", &threads);
  jsonl_get_int(object, "chunk_trials", &chunk);
  DG_REQUIRE(threads >= 1, "manifest field 'threads' is out of range: " +
                               std::to_string(threads));
  m.threads = static_cast<int>(threads);
  m.chunk_trials = static_cast<int>(chunk);

  // Legacy placement columns (backend, shards, worker_cmd) never determined
  // the record bytes, so replay runs such cells in-process and ignores them;
  // they are still checked, because a recording that spells them wrong is
  // corrupt.
  std::int64_t shards = 1;
  jsonl_get_int(object, "shards", &shards);
  DG_REQUIRE(shards >= 1,
             "manifest field 'shards' is out of range: " + std::to_string(shards));
  std::string backend;
  jsonl_get_string(object, "backend", &backend);
  DG_REQUIRE(backend.empty() || backend == "in-process" || backend == "sharded",
             "manifest field 'backend' names no known execution backend: '" + backend +
                 "' (known: in-process, sharded)");
  jsonl_get_string(object, "build", &m.build);
  return m;
}

std::vector<RecordedCell> load_recording(std::istream& in) {
  std::vector<RecordedCell> cells;
  std::vector<std::string> pending;  // trial lines awaiting their summary
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::string kind;
    DG_REQUIRE(jsonl_get_string(line, "record", &kind),
               "line " + std::to_string(line_number) +
                   " of the recording has no \"record\" field — truncated or "
                   "not JSON-lines output of rumor_cli --json");
    if (kind == "trial") {
      pending.push_back(line);
    } else if (kind == "summary") {
      RecordedCell cell;
      cell.manifest = parse_manifest(line);
      cell.summary_line = line;
      cell.trial_lines = std::move(pending);
      pending.clear();
      DG_REQUIRE(
          static_cast<int>(cell.trial_lines.size()) == cell.manifest.trials,
          "truncated records: cell '" + cell.manifest.scenario + " " +
              cell.manifest.engine + " " + cell.manifest.protocol + "' has " +
              std::to_string(cell.trial_lines.size()) + " trial records but its "
              "manifest promises " + std::to_string(cell.manifest.trials));
      cells.push_back(std::move(cell));
    }
    // Other record kinds (scenario_matrix, microbench, perf_counters,
    // fingerprint) are legitimate snapshot content with nothing to replay.
  }
  DG_REQUIRE(pending.empty(),
             "truncated recording: " + std::to_string(pending.size()) +
                 " trial records after the last summary (the closing "
                 "summary/manifest line is missing)");
  DG_REQUIRE(!cells.empty(),
             "no {\"record\":\"summary\"} lines found — not a recorded sweep "
             "(record one with `rumor_cli run/sweep --json`)");
  return cells;
}

}  // namespace rumor
