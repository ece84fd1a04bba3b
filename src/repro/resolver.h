// Manifest resolver: maps a parsed ReproManifest back through the live
// scenario registry onto the exact ExperimentConfig that produced it, and
// compares two manifests for the replay fixed-point check.
//
// Resolution is the trust boundary of the replay harness. The runner columns
// were already typed and range-checked by parse_manifest (or set by a
// front-end), so what is left to validate is the scenario and its params:
// an unknown scenario, an unknown or out-of-range param, or a param list
// that does not round-trip through today's schema throws
// std::invalid_argument naming the offender, before a single trial runs. A
// manifest that resolves re-runs the recorded experiment bit-for-bit — the
// determinism contract the harness exists to enforce.
#pragma once

#include <string>

#include "repro/manifest.h"
#include "scenarios/experiment.h"

namespace rumor {

// Reconstructs the ExperimentConfig: the scenario, its param overrides and
// the manifest's RunnerOptions, execution topology included. The caller owns
// any topology overrides.
ExperimentConfig resolve_manifest(const ReproManifest& manifest);

// Returns "" when the two manifests describe the same experiment and
// topology, else the name of the first differing field: scenario, params,
// then the runner columns in list order, each compared by its written
// spelling. Provenance (build) is excluded — it legitimately differs between
// the recording and the replaying binary.
std::string manifest_divergence(const ReproManifest& recorded,
                                const ReproManifest& replayed);

}  // namespace rumor
