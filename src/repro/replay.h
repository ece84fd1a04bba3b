// Replay orchestrator: re-run a recorded sweep from its manifests and prove
// the re-run byte-identical, cell by cell.
//
// This is the library half of `rumor_cli replay`, shared with the tests: for
// every RecordedCell it resolves the manifest back through the scenario
// registry (repro/resolver.h), re-runs the experiment with the recorded
// options — topology included, unless the caller overrides it to probe the
// determinism contract along the thread axis — captures the replayed
// trial records through a streaming sink, and byte-diffs them against the
// recording (repro/record_diff.h). The replayed manifest is additionally
// required to be a fixed point (manifest_divergence empty) whenever the
// recorded topology was reproduced as-is.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "repro/manifest.h"
#include "repro/record_diff.h"

namespace rumor {

struct ReplayOptions {
  // > 0: replace the recorded thread count. The records must not care — that
  // is the contract being probed — so diffs still run against the recorded
  // bytes; only the manifest fixed-point check is skipped.
  int threads_override = 0;

  // The replaying binary's build id. A mismatch with the recording is a
  // stderr note by default (replaying old recordings on new builds is the
  // point of the harness); strict_build turns it into a named error for CI
  // jobs that must only ever compare like with like.
  bool strict_build = false;
  std::string build_info;
};

struct CellReplayResult {
  std::string label;            // "scenario engine protocol" for messages
  std::string fingerprint;      // SHA-256 of the replayed record stream
  RecordDivergence divergence;  // identical == true when the bytes matched
  std::string manifest_field;   // non-empty: manifest fixed-point violation
  bool ok() const { return divergence.identical && manifest_field.empty(); }
};

struct ReplayReport {
  bool ok = true;
  int trials = 0;  // total trials re-run
  std::vector<CellReplayResult> cells;
};

// Re-runs every cell and reports. Per-cell progress lines (OK/FAIL, trial
// counts, fingerprints) go to `diag`. Resolution errors (unknown scenario,
// corrupt params, strict-build mismatch) throw std::invalid_argument;
// divergences do not throw — they come back named in the report so the
// driver can show every failing cell, not just the first.
ReplayReport replay_recording(const std::vector<RecordedCell>& recording,
                              const ReplayOptions& options, std::ostream& diag);

}  // namespace rumor
