// Manifest resolver: maps a parsed ReproManifest back through the live
// scenario registry onto the exact ExperimentConfig that produced it.
//
// Resolution is the trust boundary of the replay harness: every manifest
// field is re-validated against today's schema (unknown scenario, unknown
// engine/protocol, out-of-range or non-round-tripping params all throw
// std::invalid_argument naming the offending field), so a corrupted or
// drifted recording fails with an actionable message before a single trial
// runs. A manifest that resolves is guaranteed to re-run the recorded
// experiment bit-for-bit — that is the determinism contract the harness
// exists to enforce.
#pragma once

#include <string>

#include "repro/manifest.h"
#include "scenarios/experiment.h"

namespace rumor {

// Reconstructs the ExperimentConfig (scenario, param overrides, full
// RunnerOptions including the recorded execution topology). The caller owns
// any topology overrides.
ExperimentConfig resolve_manifest(const ReproManifest& manifest);

// Field-by-field comparison for the manifest fixed-point check: returns ""
// when the two manifests describe the same experiment and topology, else the
// name of the first differing field. Provenance (build) is excluded — it
// legitimately differs between the recording and the replaying binary.
std::string manifest_divergence(const ReproManifest& recorded,
                                const ReproManifest& replayed);

}  // namespace rumor
