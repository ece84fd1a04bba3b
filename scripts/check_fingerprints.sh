#!/usr/bin/env bash
# Golden fingerprint suite: one SHA-256 per (scenario x engine x protocol)
# cell over the canonical per-trial record stream, compared against
# tests/golden/fingerprints.json. Because the fingerprint key deliberately
# excludes execution topology (src/repro/fingerprint.h), the same golden
# table must verify under any --threads count — ctest runs this script at
# threads 1 and 8, turning the determinism contract into a single-file byte
# assertion.
#
# The suite pins every dynamic family plus the engine-internal code paths
# that must not leak into records:
#   - ten scenarios x {async_jump, sync} at n=128 (per-family coverage),
#   - static_torus x {async_jump, async_tick} (tick-engine coverage),
#   - a dense-churn edge-Markovian cell (full rate rebuilds at change points),
#   - a near-stationary edge-Markovian cell sized so the O(delta*deg)
#     incremental rate path engages (core/rate_model.h's delta_cheaper),
#   - a slow-clock edge-Markovian cell (mean degree ~21, ~8 flips per
#     change-point, ~900 change-points a trial), where the delta path runs
#     with the informed set anywhere from one node to all but a few,
#   - an n=20000 expander cell above the 16384-node tiling threshold, so
#     threaded runs exercise the tiled parallel rebuild/evolution paths,
#   - an n=100000 edge-Markovian cell (m ~ 400k) above the 2^17-edge
#     threshold of TopologyBuilder's tiled delta-merge weave,
#   - an n=17000 mobile-geometric cell above the tiling threshold, so
#     threaded runs exercise the tiled rebuild and the tiled cell-grid pass,
#   - a bounds grid with non-default clock rate, failure and source, which
#     pins the runner-option reading and the bound tracker's crossings.
#
# Usage: scripts/check_fingerprints.sh path/to/rumor_cli
#          [--threads N] [--update] [--out FILE]
#   --update  rewrite tests/golden/fingerprints.json from this build
#   --out     also copy the freshly computed table to FILE (CI artifact)
set -euo pipefail
cli=${1:?usage: check_fingerprints.sh path/to/rumor_cli [--threads N] [--update] [--out FILE]}
shift
if [ ! -x "$cli" ]; then
  echo "check_fingerprints.sh: rumor_cli not found or not executable at '$cli'" >&2
  echo "  build it first: cmake --build build --target rumor_cli" >&2
  exit 2
fi

threads=1 update=0 out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --threads) threads=$2; shift 2 ;;
    --update)  update=1;   shift ;;
    --out)     out=$2;     shift 2 ;;
    *) echo "check_fingerprints.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
done
cd "$(dirname "$0")/.."
golden=tests/golden/fingerprints.json

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

topo=(--threads "$threads")
{
  "$cli" fingerprint \
    --scenarios static_clique,static_expander,dynamic_star,clique_bridge,edge_markovian,mobile_geometric,diligent_adversary,absolute_adversary,edge_sampling_expander,intermittent_expander \
    --engines async_jump,sync --sweep n=128 --trials 5 --seed 7 "${topo[@]}"
  "$cli" fingerprint --scenarios static_torus --engines async_jump,async_tick \
    --rows 24 --cols 24 --trials 5 --seed 7 "${topo[@]}"
  # Dense churn: every change point takes the full-rebuild rate path.
  "$cli" fingerprint --scenarios edge_markovian --engines async_jump \
    --sweep n=20000 --p 8e-05 --q 0.2 --trials 2 --seed 9 "${topo[@]}"
  # Near-stationary: ~16 edge flips per change point, so the delta rate path
  # engages and must leave the records bit-identical to a rebuild.
  "$cli" fingerprint --scenarios edge_markovian --engines async_jump \
    --sweep n=4000 --p 1e-06 --q 0.0005 --trials 2 --seed 9 "${topo[@]}"
  # Slow clock on a denser, quieter graph: most change-points take the delta
  # path across every cut size a spread passes through.
  "$cli" fingerprint --scenarios edge_markovian --engines async_jump \
    --sweep n=4000 --p 5e-7 --q 9.5e-5 --clock-rate 0.01 --trials 2 --seed 13 "${topo[@]}"
  # Above the tiling threshold with trials < threads: threaded runs split
  # surplus workers into tiled rebuild teams, which must not change bytes.
  "$cli" fingerprint --scenarios edge_sampling_expander --engines async_jump \
    --sweep n=20000 --d 4 --p 0.5 --trials 2 --seed 9 "${topo[@]}"
  # m ~ 400k edges, above TopologyBuilder::kParallelMergeMinEdges (2^17):
  # threaded runs take the tiled delta-merge weave, serial runs the plain one.
  "$cli" fingerprint --scenarios edge_markovian --engines async_jump \
    --sweep n=100000 --p 1.6e-5 --q 0.2 --trials 2 --seed 7 "${topo[@]}"
  # n=17000 is above kParallelRebuildMinNodes (2^14), and 8 threads over 2
  # trials leave each trial a team of 4: threaded runs take the tiled rate
  # rebuild and the tiled cell-grid pass of the mobile-geometric family.
  "$cli" fingerprint --scenarios mobile_geometric --engines async_jump \
    --sweep n=17000 --radius 0.02 --step 0.01 --trials 2 --seed 9 "${topo[@]}"
  # Runner options and bound tracking: every non-default runner column a
  # request can set reaches the records, and the tracker's crossings with it.
  "$cli" fingerprint --scenarios dynamic_star,static_expander \
    --engines async_jump,async_tick,sync --protocols push,pull --sweep n=64 --trials 3 \
    --seed 11 --bounds --clock-rate 0.5 --failure 0.25 --source 1 "${topo[@]}"
} > "$tmp"

if [ -n "$out" ]; then cp "$tmp" "$out"; fi

if [ "$update" = 1 ]; then
  cp "$tmp" "$golden"
  echo "updated $golden ($(wc -l < "$tmp") cells)"
  exit 0
fi

if ! diff -u "$golden" "$tmp"; then
  echo "fingerprints drifted from $golden (threads=$threads)" >&2
  echo "  a diff here means per-trial record bytes changed for that cell;" >&2
  echo "  if intentional, regenerate with: scripts/check_fingerprints.sh $cli --update" >&2
  exit 1
fi
echo "fingerprints match golden: $(wc -l < "$tmp") cells (threads=$threads)"
