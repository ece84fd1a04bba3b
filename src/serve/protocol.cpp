#include "serve/protocol.h"

#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "repro/resolver.h"
#include "serve/cache.h"
#include "support/contracts.h"
#include "support/jsonl.h"

namespace rumor {

namespace {

// Request fields that drive the driver itself; everything else is a scenario
// parameter override, exactly like rumor_cli's reserved-option rule.
const std::set<std::string>& reserved_fields() {
  static const std::set<std::string> names = {
      "id",         "cmd",        "scenario",   "scenarios", "engine",
      "engines",    "protocol",   "protocols",  "sweep",     "trials",
      "seed",       "failure",    "track_bounds", "bound_c", "bound_cap",
      "clock_rate", "time_limit", "round_limit", "source",
  };
  return names;
}

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

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// The request's value for `name`, or nullptr when the request has none.
const std::string* find_option(const ServeRequest& request, std::string_view name) {
  for (const auto& option : request.options) {
    if (option.first == name) return &option.second;
  }
  return nullptr;
}

// An option as text, or converted as strictly as a recorded JSON scalar.
template <typename T>
T option_or(const ServeRequest& request, std::string_view name, T fallback) {
  const std::string* value = find_option(request, name);
  if (value == nullptr) return fallback;
  if constexpr (std::is_same_v<T, std::string>) {
    return *value;
  } else {
    return json_scalar<T>(*value, name);
  }
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
  for (const auto& option : request.options) {
    if (rejected_fields().count(option.first) != 0) {
      bad_request("field '" + option.first +
                  "' is the server's concern (execution topology is configured by "
                  "rumor_serve flags, never per request)");
    }
  }

  const bool single_cell = request.cmd == "run" || request.cmd == "bounds";
  if (single_cell) {
    for (const char* plural : {"scenarios", "engines", "protocols", "sweep"}) {
      if (find_option(request, plural) != nullptr) {
        bad_request("'" + request.cmd + "' takes a single cell; '" +
                    std::string(plural) + "' is a sweep/fingerprint field");
      }
    }
  }

  // A grid axis: the plural field's list, else the singular field, else a default.
  const auto axis = [&request](const char* plural, const char* singular, const char* fallback) {
    const std::string single = option_or<std::string>(request, singular, fallback);
    return split_list(option_or(request, plural, single));
  };
  const std::vector<std::string> scenarios = axis("scenarios", "scenario", "");
  if (scenarios.empty()) bad_request("missing 'scenario' (or 'scenarios') field");
  const std::vector<std::string> engines = axis("engines", "engine", "async_jump");
  const std::vector<std::string> protocols = axis("protocols", "protocol", "push_pull");

  std::string sweep_name;
  std::vector<std::string> sweep_values = {""};
  if (const std::string* sweep_option = find_option(request, "sweep")) {
    const std::string& sweep = *sweep_option;
    const auto eq = sweep.find('=');
    if (eq == std::string::npos || split_list(sweep.substr(eq + 1)).empty()) {
      bad_request("'sweep' expects name=v1,v2,... got '" + sweep + "'");
    }
    sweep_name = sweep.substr(0, eq);
    sweep_values = split_list(sweep.substr(eq + 1));
  }

  const std::int64_t trials = option_or<std::int64_t>(request, "trials", 30);
  if (trials < 1 || trials > limits.max_trials) {
    bad_request("'trials' must be in [1, " + std::to_string(limits.max_trials) +
                "], got " + std::to_string(trials));
  }
  const std::size_t cells =
      scenarios.size() * engines.size() * protocols.size() * sweep_values.size();
  if (cells > static_cast<std::size_t>(limits.max_cells)) {
    bad_request("request expands to " + std::to_string(cells) +
                " cells; the server admits at most " + std::to_string(limits.max_cells));
  }

  std::map<std::string, std::string> overrides;
  for (const auto& [name, value] : request.options) {
    if (reserved_fields().count(name) == 0) overrides[name] = value;
  }

  // The runner columns every cell shares: RunnerOptions' defaults unless the
  // request sets a column, and the execution topology normalized to the
  // server's own policy.
  RunnerOptions runner;
  runner.trials = static_cast<int>(trials);
  runner.seed = option_or(request, "seed", runner.seed);
  runner.clock_rate = option_or(request, "clock_rate", runner.clock_rate);
  runner.time_limit = option_or(request, "time_limit", runner.time_limit);
  runner.round_limit = option_or(request, "round_limit", runner.round_limit);
  runner.track_bounds = request.cmd == "bounds" || option_or(request, "track_bounds", false);
  runner.bound_c = option_or(request, "bound_c", runner.bound_c);
  runner.bound_continuation_cap =
      option_or(request, "bound_cap", runner.bound_continuation_cap);
  runner.transmission_failure_prob =
      option_or(request, "failure", runner.transmission_failure_prob);
  runner.source =
      static_cast<NodeId>(kSourceColumn.checked(option_or<std::int64_t>(request, "source", -1)));
  runner.threads = limits.job_threads;

  std::vector<ResolvedCell> resolved;
  resolved.reserve(cells);
  for (const std::string& scenario : scenarios) {
    const ScenarioSpec& spec = require_scenario(scenario);
    for (const std::string& value : sweep_values) {
      std::map<std::string, std::string> cell_overrides = overrides;
      if (!sweep_name.empty()) cell_overrides[sweep_name] = value;
      const ScenarioParams params = ScenarioParams::resolve(spec, cell_overrides);
      for (const std::string& engine : engines) {
        for (const std::string& protocol : protocols) {
          // The canonical manifest: registry-resolved params in schema order
          // and engine/protocol parsed, so request aliases like "async-jump"
          // key identically.
          ReproManifest manifest{spec.name, params.items(), runner, ""};
          manifest.runner.engine = parse_engine(engine);
          manifest.runner.protocol = parse_protocol(protocol);
          std::string label = spec.name + " " + to_string(manifest.runner.engine) + " " +
                              to_string(manifest.runner.protocol);
          if (!sweep_name.empty()) label += " " + sweep_name + "=" + value;
          // resolve_manifest is the replay trust boundary: it proves the
          // params round-trip through today's schema.
          resolved.push_back(
              {resolve_manifest(manifest), manifest, cache_key(manifest), std::move(label)});
        }
      }
    }
  }
  DG_ENSURE(resolved.size() == cells, "grid expansion lost a cell");
  return resolved;
}

}  // namespace rumor
