#include "repro/fingerprint.h"

#include <ostream>

#include "repro/manifest.h"
#include "scenarios/experiment.h"
#include "support/json.h"

namespace rumor {

std::string fingerprint_records(const std::vector<std::string>& record_lines) {
  RecordHasher hasher;
  for (const std::string& line : record_lines) hasher.add(line);
  return hasher.finish();
}

void emit_fingerprint_json(std::ostream& os, const ReproManifest& manifest,
                           const std::string& sha256) {
  JsonWriter json(os);
  json.begin_object().field("record", "fingerprint").field("scenario", manifest.scenario);
  json.key("params").begin_object();
  for (const auto& [name, value] : manifest.params) json.field(name, value);
  json.end_object();
  write_runner_columns(json, manifest.runner, /*identity_only=*/true);
  json.field("sha256", sha256).end_object();
  os << '\n';
}

}  // namespace rumor
