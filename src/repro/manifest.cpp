#include "repro/manifest.h"

#include <istream>
#include <string_view>
#include <type_traits>

#include "scenarios/experiment.h"
#include "support/contracts.h"
#include "support/jsonl.h"

namespace rumor {

ReproManifest parse_manifest(const std::string& summary_line) {
  JsonObject object;
  DG_REQUIRE(JsonObject(summary_line).get("manifest", &object),
             "record carries no \"manifest\":{...} object — not a summary record");
  const auto missing = [](std::string_view key) {
    return "manifest is missing required field '" + std::string(key) +
           "' (corrupted or pre-manifest recording)";
  };

  ReproManifest m;
  DG_REQUIRE(object.get("scenario", &m.scenario), missing("scenario"));
  JsonObject params;
  DG_REQUIRE(object.get("params", &params), "manifest is missing its \"params\":{...} object");
  for (const JsonField& param : params.fields()) {
    m.params.emplace_back(param.key, json_spelling(param));
  }

  // A column that is absent keeps its RunnerOptions default, so recordings
  // made before it existed replay under the semantics they were recorded
  // under; only the identity columns are required.
  for_each_runner_column(m.runner, [&](const RunnerColumn& column, auto& value) {
    using T = std::decay_t<decltype(value)>;
    const JsonField* field = object.find(column.name);
    if (field == nullptr) {
      DG_REQUIRE(!column.identity, missing(column.name));
    } else if constexpr (std::is_same_v<T, EngineKind>) {
      value = parse_engine(json_spelling(*field));
    } else if constexpr (std::is_same_v<T, Protocol>) {
      value = parse_protocol(json_spelling(*field));
    } else {
      value = column.read<T>(field->text);
    }
  });

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
          static_cast<int>(cell.trial_lines.size()) == cell.manifest.runner.trials,
          "truncated records: cell '" + cell.manifest.scenario + " " +
              to_string(cell.manifest.runner.engine) + " " +
              to_string(cell.manifest.runner.protocol) + "' has " +
              std::to_string(cell.trial_lines.size()) + " trial records but its "
              "manifest promises " + std::to_string(cell.manifest.runner.trials));
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
