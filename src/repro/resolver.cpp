#include "repro/resolver.h"

#include <map>

#include "support/contracts.h"
#include "support/json.h"

namespace rumor {

ExperimentConfig resolve_manifest(const ReproManifest& manifest) {
  const ScenarioSpec& spec = require_scenario(manifest.scenario);

  std::map<std::string, std::string> overrides;
  for (const auto& [name, value] : manifest.params) {
    DG_REQUIRE(overrides.emplace(name, value).second,
               "manifest param '" + name + "' appears twice");
  }
  // resolve() rejects unknown names and range violations; the round-trip
  // check below additionally pins spelling and order, so a value the schema
  // would silently re-format (or a param list in the wrong order) is caught
  // as corruption rather than replayed as something subtly different.
  const ScenarioParams params = ScenarioParams::resolve(spec, overrides);
  const auto& resolved = params.items();
  DG_REQUIRE(resolved.size() == manifest.params.size(),
             "manifest params for scenario '" + manifest.scenario + "' list " +
                 std::to_string(manifest.params.size()) + " values but the schema has " +
                 std::to_string(resolved.size()) +
                 " — recorded under a different schema version");
  for (std::size_t i = 0; i < resolved.size(); ++i) {
    DG_REQUIRE(resolved[i] == manifest.params[i],
               "manifest param '" + manifest.params[i].first +
                   "' does not round-trip through the schema (recorded \"" +
                   manifest.params[i].second + "\", resolves to \"" + resolved[i].second +
                   "\" for '" + resolved[i].first + "')");
  }

  ExperimentConfig config;
  config.scenario = manifest.scenario;
  config.param_overrides = overrides;
  RunnerOptions& opt = config.runner;
  opt.engine = parse_engine(manifest.engine);
  opt.protocol = parse_protocol(manifest.protocol);
  opt.trials = manifest.trials;
  opt.seed = manifest.seed;
  opt.clock_rate = manifest.clock_rate;
  opt.time_limit = manifest.time_limit;
  opt.round_limit = manifest.round_limit;
  opt.track_bounds = manifest.track_bounds;
  opt.bound_c = manifest.bound_c;
  opt.bound_continuation_cap = manifest.bound_continuation_cap;
  opt.transmission_failure_prob = manifest.transmission_failure_prob;
  opt.source = static_cast<NodeId>(manifest.source);
  opt.threads = manifest.threads;
  opt.chunk_trials = manifest.chunk_trials;
  return config;
}

std::string manifest_divergence(const ReproManifest& recorded,
                                const ReproManifest& replayed) {
  if (recorded.scenario != replayed.scenario) return "scenario";
  if (recorded.params != replayed.params) return "params";
  if (recorded.engine != replayed.engine) return "engine";
  if (recorded.protocol != replayed.protocol) return "protocol";
  if (recorded.trials != replayed.trials) return "trials";
  if (recorded.seed != replayed.seed) return "seed";
  // Doubles compare by round-trip spelling: both sides were printed by
  // json_number, so equality of spelling is equality of bits.
  if (json_number(recorded.clock_rate) != json_number(replayed.clock_rate)) {
    return "clock_rate";
  }
  if (json_number(recorded.time_limit) != json_number(replayed.time_limit)) {
    return "time_limit";
  }
  if (recorded.round_limit != replayed.round_limit) return "round_limit";
  if (recorded.track_bounds != replayed.track_bounds) return "track_bounds";
  if (json_number(recorded.bound_c) != json_number(replayed.bound_c)) return "bound_c";
  if (recorded.bound_continuation_cap != replayed.bound_continuation_cap) {
    return "bound_continuation_cap";
  }
  if (json_number(recorded.transmission_failure_prob) !=
      json_number(replayed.transmission_failure_prob)) {
    return "transmission_failure_prob";
  }
  if (recorded.source != replayed.source) return "source";
  if (recorded.threads != replayed.threads) return "threads";
  if (recorded.chunk_trials != replayed.chunk_trials) return "chunk_trials";
  return "";
}

}  // namespace rumor
