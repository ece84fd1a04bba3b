#include "repro/resolver.h"

#include <map>

#include "support/contracts.h"

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
  config.runner = manifest.runner;
  return config;
}

std::string manifest_divergence(const ReproManifest& recorded,
                                const ReproManifest& replayed) {
  if (recorded.scenario != replayed.scenario) return "scenario";
  if (recorded.params != replayed.params) return "params";
  const auto a = runner_column_spellings(recorded.runner);
  const auto b = runner_column_spellings(replayed.runner);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second) return std::string(a[i].first);
  }
  return "";
}

}  // namespace rumor
