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
#     incremental rate path engages (candidates*32 < n, core/rate_model.h),
#   - an n=20000 expander cell above the 16384-node tiling threshold, so
#     threaded runs exercise the tiled parallel rebuild/evolution paths.
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
  # Above the tiling threshold with trials < threads: threaded runs split
  # surplus workers into tiled rebuild teams, which must not change bytes.
  "$cli" fingerprint --scenarios edge_sampling_expander --engines async_jump \
    --sweep n=20000 --d 4 --p 0.5 --trials 2 --seed 9 "${topo[@]}"
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
