#include "repro/replay.h"

#include <ostream>
#include <sstream>

#include "repro/fingerprint.h"
#include "repro/resolver.h"
#include "support/contracts.h"
#include "support/json.h"

namespace rumor {

namespace {

// The replayed manifest, parsed back out of a re-serialized summary: the
// fixed-point side of "record -> replay -> identical manifest".
ReproManifest replayed_manifest(const ExperimentResult& result,
                                const std::string& build_info) {
  std::ostringstream os;
  os << "{\"record\":\"summary\",\"manifest\":";
  {
    JsonWriter json(os);
    write_manifest(json, result, build_info);
  }
  os << "}";
  return parse_manifest(os.str());
}

}  // namespace

ReplayReport replay_recording(const std::vector<RecordedCell>& recording,
                              const ReplayOptions& options, std::ostream& diag) {
  ReplayReport report;
  bool build_noted = false;
  for (const RecordedCell& cell : recording) {
    const ReproManifest& m = cell.manifest;
    CellReplayResult out;
    out.label =
        m.scenario + " " + to_string(m.runner.engine) + " " + to_string(m.runner.protocol);

    if (!m.build.empty() && !options.build_info.empty() && m.build != options.build_info) {
      DG_REQUIRE(!options.strict_build,
                 "build id mismatch under --strict-build: recorded by '" + m.build +
                     "', replaying binary is '" + options.build_info + "'");
      if (!build_noted) {
        diag << "note: build id differs (recorded " << m.build << ", replaying "
             << options.build_info << ") — byte identity is still required\n";
        build_noted = true;
      }
    }

    ExperimentConfig config = resolve_manifest(m);
    const bool overridden = options.threads_override > 0;
    if (overridden) config.runner.threads = options.threads_override;

    std::vector<std::string> lines;
    lines.reserve(cell.trial_lines.size());
    const TrialSink sink = [&lines](const ExperimentResult& r, int trial,
                                    const SpreadResult& t) {
      std::ostringstream record;
      emit_trial_json(record, r, trial, t);
      std::string line = record.str();
      line.pop_back();  // emit_trial_json terminates with '\n'
      lines.push_back(std::move(line));
    };
    const ExperimentResult result = run_experiment(config, sink);

    out.fingerprint = fingerprint_records(lines);
    out.divergence = diff_records(cell.trial_lines, lines);
    if (!overridden) {
      out.manifest_field =
          manifest_divergence(m, replayed_manifest(result, options.build_info));
    }

    report.trials += static_cast<int>(lines.size());
    if (out.ok()) {
      diag << "replay [" << out.label << "] " << lines.size()
           << " trials byte-identical  sha256=" << out.fingerprint << "\n";
    } else {
      report.ok = false;
      diag << "replay [" << out.label << "] DIVERGED: "
           << (out.divergence.identical
                   ? "manifest field '" + out.manifest_field + "' is not a fixed point"
                   : out.divergence.message)
           << "\n";
    }
    report.cells.push_back(std::move(out));
  }
  return report;
}

}  // namespace rumor
