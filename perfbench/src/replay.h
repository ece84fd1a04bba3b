// Replays of a captured topology sequence, run after the timed section.
//
// The library does not time its own layers, so the per-layer split of
// graph_at is estimated here by re-running the captured change-points through
// the same public entry points the families use:
//
//  * apply_delta_s: each captured delta fed to a fresh TopologyBuilder's
//    apply_delta_sorted (merge + CSR build, as edge_markovian does in-program);
//  * csr_build_s:   the same snapshots rebuilt through rebuild_presorted
//    (CSR build alone), so merge = apply_delta - csr_build;
//  * rate_rebuild_s: a standalone RateModel full rebuild (DeltaPolicy::never)
//    on each snapshot with the informed set the engine saw there.
//
// These are replay estimates, not in-program measurements: caches are colder
// or warmer than in the engine, and no evolution runs in between.
#pragma once

#include "stats/summary.h"
#include "trace.h"

namespace perfbench {

struct ReplayTimes {
  rumor::SampleSet apply_delta_s;   // one per captured change-point
  rumor::SampleSet csr_build_s;     // one per captured change-point
  rumor::SampleSet rate_rebuild_s;  // one per snapshot (first snapshot included)
  double mean_edges = 0.0;          // mean snapshot edge count
};

// `beta` is the engine's clock rate (push-pull, no transmission failures).
ReplayTimes replay_capture(const Capture& capture, double beta);

}  // namespace perfbench
