#include "serve/protocol.h"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

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

// Typed accessors over the request's option list, each failing with the
// field named.
class RequestView {
 public:
  explicit RequestView(const ServeRequest& request) {
    for (const auto& [name, value] : request.options) values_.emplace(name, value);
  }

  bool has(const std::string& name) const { return values_.count(name) != 0; }

  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  std::int64_t get_int(const std::string& name, std::int64_t fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
      bad_request("field '" + name + "' expects an integer, got '" + it->second + "'");
    }
    return static_cast<std::int64_t>(v);
  }

  double get_double(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      bad_request("field '" + name + "' expects a number, got '" + it->second + "'");
    }
    return v;
  }

  bool get_bool(const std::string& name, bool fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    if (it->second == "true") return true;
    if (it->second == "false") return false;
    bad_request("field '" + name + "' expects true or false, got '" + it->second + "'");
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace

ServeRequest parse_request(const std::string& line) {
  std::vector<std::pair<std::string, std::string>> items;
  if (!jsonl_object_items(line, &items)) {
    bad_request("not a flat JSON object: " + line);
  }
  ServeRequest request;
  std::set<std::string> seen;
  for (auto& [name, value] : items) {
    if (!seen.insert(name).second) bad_request("field '" + name + "' appears twice");
    if (name == "id") {
      request.id = value;
    } else if (name == "cmd") {
      request.cmd = value;
    } else {
      request.options.emplace_back(name, std::move(value));
    }
  }
  if (request.cmd.empty()) bad_request("missing 'cmd' field");
  return request;
}

std::vector<ResolvedCell> resolve_request_cells(const ServeRequest& request,
                                                const ServeLimits& limits) {
  const RequestView view(request);
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
      if (view.has(plural)) {
        bad_request("'" + request.cmd + "' takes a single cell; '" +
                    std::string(plural) + "' is a sweep/fingerprint field");
      }
    }
  }

  const std::vector<std::string> scenarios =
      split_list(view.get("scenarios", view.get("scenario", "")));
  if (scenarios.empty()) bad_request("missing 'scenario' (or 'scenarios') field");
  const std::vector<std::string> engines =
      split_list(view.get("engines", view.get("engine", "async_jump")));
  const std::vector<std::string> protocols =
      split_list(view.get("protocols", view.get("protocol", "push_pull")));

  std::string sweep_name;
  std::vector<std::string> sweep_values = {""};
  if (view.has("sweep")) {
    const std::string sweep = view.get("sweep", "");
    const auto eq = sweep.find('=');
    if (eq == std::string::npos || split_list(sweep.substr(eq + 1)).empty()) {
      bad_request("'sweep' expects name=v1,v2,... got '" + sweep + "'");
    }
    sweep_name = sweep.substr(0, eq);
    sweep_values = split_list(sweep.substr(eq + 1));
  }

  const std::int64_t trials = view.get_int("trials", 30);
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
          // The canonical manifest: registry-resolved params in schema order,
          // engine/protocol in their to_string spellings (so request aliases
          // like "async-jump" key identically), and the topology normalized
          // to the server's own policy. Defaults come from ReproManifest,
          // which mirrors RunnerOptions' defaults field for field.
          ReproManifest manifest;
          manifest.scenario = spec.name;
          manifest.params = params.items();
          manifest.engine = to_string(parse_engine(engine));
          manifest.protocol = to_string(parse_protocol(protocol));
          manifest.trials = static_cast<int>(trials);
          manifest.seed = static_cast<std::uint64_t>(view.get_int("seed", 1));
          manifest.clock_rate = view.get_double("clock_rate", manifest.clock_rate);
          manifest.time_limit = view.get_double("time_limit", manifest.time_limit);
          manifest.round_limit = view.get_int("round_limit", manifest.round_limit);
          manifest.track_bounds =
              request.cmd == "bounds" || view.get_bool("track_bounds", false);
          manifest.bound_c = view.get_double("bound_c", manifest.bound_c);
          manifest.bound_continuation_cap =
              view.get_int("bound_cap", manifest.bound_continuation_cap);
          manifest.transmission_failure_prob = view.get_double("failure", 0.0);
          manifest.source = view.get_int("source", -1);
          manifest.threads = limits.job_threads;
          manifest.chunk_trials = 0;

          ResolvedCell cell;
          // The replay trust boundary: re-validates every field and proves
          // the params round-trip through today's schema.
          cell.config = resolve_manifest(manifest);
          cell.manifest = std::move(manifest);
          cell.key = cache_key(cell.manifest);
          cell.label = spec.name + " " + cell.manifest.engine + " " +
                       cell.manifest.protocol;
          if (!sweep_name.empty()) cell.label += " " + sweep_name + "=" + value;
          resolved.push_back(std::move(cell));
        }
      }
    }
  }
  DG_ENSURE(resolved.size() == cells, "grid expansion lost a cell");
  return resolved;
}

}  // namespace rumor
