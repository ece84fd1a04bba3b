#include "serve/protocol.h"

#include <set>

#include "repro/resolver.h"
#include "serve/cache.h"
#include "support/jsonl.h"

namespace rumor {

namespace {

// Topology/provenance fields a client must not set (see the header).
const std::set<std::string>& rejected_fields() {
  static const std::set<std::string> names = {
      "threads", "chunk", "chunk_trials", "shards", "worker_cmd", "backend", "build",
  };
  return names;
}

[[noreturn]] void bad_request(const std::string& what) {
  throw std::invalid_argument("bad request: " + what);
}

}  // namespace

ServeRequest parse_request(const std::string& line) {
  ServeRequest request;
  try {
    const JsonObject object(line);
    for (const JsonField& field : object.fields()) {
      std::string value = json_spelling(field);
      if (field.key == "id") {
        request.id = std::move(value);
      } else if (field.key == "cmd") {
        request.cmd = std::move(value);
      } else {
        request.options.emplace_back(field.key, std::move(value));
      }
    }
  } catch (const std::invalid_argument& e) {
    bad_request(std::string("not a flat JSON object: ") + e.what());
  }
  if (request.cmd.empty()) bad_request("missing 'cmd' field");
  return request;
}

std::vector<ResolvedCell> resolve_request_cells(const ServeRequest& request,
                                                const ServeLimits& limits) {
  RequestOptions options;
  for (const auto& [name, value] : request.options) {
    if (rejected_fields().count(name) != 0) {
      bad_request("field '" + name +
                  "' is the server's concern (execution topology is configured by "
                  "rumor_serve flags, never per request)");
    }
    options.emplace(name, value);
  }

  RequestGrid grid;
  // track_bounds and bound_c are this protocol's spelling of rumor_cli's
  // `--bounds [c]`; `bounds` requests track bounds regardless.
  RunnerOptions bounds;
  bounds.track_bounds = request.cmd == "bounds";
  try {
    if (const auto it = options.find("track_bounds"); it != options.end()) {
      bounds.track_bounds = bounds.track_bounds || json_scalar<bool>(it->second, it->first);
      options.erase(it);
    }
    if (const auto it = options.find("bound_c"); it != options.end()) {
      bounds.bound_c = json_scalar<double>(it->second, it->first);
      options.erase(it);
    }
    const bool single_cell = request.cmd == "run" || request.cmd == "bounds";
    grid = expand_request(options, single_cell, RequestSpelling::field,
                          static_cast<std::size_t>(limits.max_cells));
  } catch (const std::invalid_argument& e) {
    bad_request(e.what());
  }

  const int trials = grid.cells.front().config.runner.trials;
  if (trials > limits.max_trials) {
    bad_request("'trials' must be in [1, " + std::to_string(limits.max_trials) + "], got " +
                std::to_string(trials));
  }

  std::vector<ResolvedCell> resolved;
  resolved.reserve(grid.cells.size());
  for (const RequestCell& cell : grid.cells) {
    // The canonical manifest: registry-resolved params in schema order and
    // engine/protocol parsed, so request aliases like "async-jump" key
    // identically; the execution topology is the server's own policy.
    ReproManifest manifest{cell.config.scenario, cell.params, cell.config.runner, ""};
    RunnerOptions& runner = manifest.runner;
    runner.track_bounds = bounds.track_bounds;
    runner.bound_c = bounds.bound_c;
    runner.threads = limits.job_threads;
    std::string label = cell.config.scenario + " " + to_string(runner.engine) + " " +
                        to_string(runner.protocol);
    if (!grid.sweep_name.empty()) label += " " + grid.sweep_name + "=" + cell.swept_value;
    // resolve_manifest is the replay trust boundary: it proves the params
    // round-trip through today's schema.
    resolved.push_back(
        {resolve_manifest(manifest), manifest, cache_key(manifest), std::move(label)});
  }
  return resolved;
}

}  // namespace rumor
