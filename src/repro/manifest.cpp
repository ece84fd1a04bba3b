#include "repro/manifest.h"

#include <istream>
#include <limits>

#include "support/contracts.h"
#include "support/jsonl.h"

namespace rumor {

namespace {

// A field every manifest must carry: one that is missing makes the recording
// corrupt, and the error says which field and why it matters.
template <typename T>
void require_field(const JsonObject& manifest, const std::string& key, T* out) {
  DG_REQUIRE(manifest.get(key, out), "manifest is missing required field '" + key +
                                         "' (corrupted or pre-manifest recording)");
}

}  // namespace

ReproManifest parse_manifest(const std::string& summary_line) {
  JsonObject object;
  DG_REQUIRE(JsonObject(summary_line).get("manifest", &object),
             "record carries no \"manifest\":{...} object — not a summary record");

  ReproManifest m;
  require_field(object, "scenario", &m.scenario);
  require_field(object, "engine", &m.engine);
  require_field(object, "protocol", &m.protocol);
  std::int64_t trials = 0;
  require_field(object, "trials", &trials);
  DG_REQUIRE(trials >= 1 && trials <= 1'000'000'000,
             "manifest field 'trials' is out of range: " + std::to_string(trials));
  m.trials = static_cast<int>(trials);
  require_field(object, "seed", &m.seed);

  JsonObject params;
  DG_REQUIRE(object.get("params", &params), "manifest is missing its \"params\":{...} object");
  for (const JsonField& param : params.fields()) {
    m.params.emplace_back(param.key, json_spelling(param));
  }

  // Optional columns keep their RunnerOptions defaults when absent, so
  // recordings made before a column existed replay under the same semantics
  // they were recorded under.
  object.get("clock_rate", &m.clock_rate);
  object.get("time_limit", &m.time_limit);
  object.get("round_limit", &m.round_limit);
  object.get("track_bounds", &m.track_bounds);
  object.get("bound_c", &m.bound_c);
  object.get("bound_continuation_cap", &m.bound_continuation_cap);
  object.get("transmission_failure_prob", &m.transmission_failure_prob);
  object.get("source", &m.source);

  std::int64_t threads = 1, chunk = 0;
  object.get("threads", &threads);
  object.get("chunk_trials", &chunk);
  DG_REQUIRE(threads >= 1 && threads <= std::numeric_limits<int>::max(),
             "manifest field 'threads' is out of range: " + std::to_string(threads));
  DG_REQUIRE(chunk >= 0 && chunk <= std::numeric_limits<int>::max(),
             "manifest field 'chunk_trials' is out of range: " + std::to_string(chunk));
  m.threads = static_cast<int>(threads);
  m.chunk_trials = static_cast<int>(chunk);

  // Legacy placement columns (backend, shards, worker_cmd) never determined
  // the record bytes, so replay runs such cells in-process and ignores them;
  // they are still checked, because a recording that spells them wrong is
  // corrupt.
  std::int64_t shards = 1;
  object.get("shards", &shards);
  DG_REQUIRE(shards >= 1,
             "manifest field 'shards' is out of range: " + std::to_string(shards));
  std::string backend;
  object.get("backend", &backend);
  DG_REQUIRE(backend.empty() || backend == "in-process" || backend == "sharded",
             "manifest field 'backend' names no known execution backend: '" + backend +
                 "' (known: in-process, sharded)");
  object.get("build", &m.build);
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
    const std::string where = "line " + std::to_string(line_number) + " of the recording";
    std::string kind;
    bool has_kind = false;
    try {
      has_kind = JsonObject(line).get("record", &kind);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(where + ": " + e.what());
    }
    DG_REQUIRE(has_kind, where + " has no \"record\" field — not JSON-lines output of "
                                 "rumor_cli --json");
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
