#!/usr/bin/env bash
# Scale-tier determinism assert: per-trial records must be byte-identical for
# every thread count. Counter-based trial seeds + index-addressed results +
# in-order chunk aggregation make the runner's output a pure function of
# (scenario, params, engine, seed); this script proves it end to end through
# `rumor_cli fingerprint` — each run reduces a cell's record stream to one
# SHA-256 line that omits the topology, so runs from different thread counts
# diff directly. It compares threads=1 with a many-worker run on mid-size
# cells, plus one trials=2 cell where the surplus-thread policy (workers =
# trials, rebuild_threads = threads/workers) actually engages the tiled
# parallel rate rebuilds — n is above the 16384-node tiling threshold, so the
# tiled gather/assign paths run and must still match the serial run byte for
# byte.
#
# Usage: scripts/check_thread_identity.sh path/to/rumor_cli [threads]
set -euo pipefail
cli=${1:?usage: check_thread_identity.sh path/to/rumor_cli [threads]}
threads=${2:-8}
if [ ! -x "$cli" ]; then
  echo "check_thread_identity.sh: rumor_cli not found or not executable at '$cli'" >&2
  echo "  build it first: cmake --build build --target rumor_cli" >&2
  exit 2
fi

tmp1=$(mktemp); tmpN=$(mktemp)
trap 'rm -f "$tmp1" "$tmpN"' EXIT

run_matrix() {  # $1 = thread count, $2 = output file
  "$cli" fingerprint --scenarios edge_markovian --engines async_jump,async_tick \
    --sweep n=20000 --p 8e-05 --q 0.2 \
    --trials 6 --seed 9 --threads "$1" > "$2"
  "$cli" fingerprint --scenarios static_torus --engines async_jump,async_tick \
    --rows 141 --cols 141 \
    --trials 6 --seed 9 --threads "$1" >> "$2"
  # trials < threads: with $1 > 2 this runs 2 workers x ($1/2) rebuild
  # threads, driving the tiled rebuild code path itself.
  "$cli" fingerprint --scenarios edge_sampling_expander --engines async_jump \
    --sweep n=20000 --d 4 --p 0.5 \
    --trials 2 --seed 9 --threads "$1" >> "$2"
  # Near-stationary edge-Markovian (tiny churn at mean degree 8): the jump
  # engine takes the O(Δ·deg) delta rate path at quiet change-points, and the
  # surplus threads drive the family's tiled parallel evolution — both must
  # leave the records byte-identical to the serial run.
  "$cli" fingerprint --scenarios edge_markovian --engines async_jump \
    --sweep n=40000 --p 2e-08 --q 0.0001 \
    --trials 2 --seed 9 --threads "$1" >> "$2"
}

run_matrix 1 "$tmp1"
run_matrix "$threads" "$tmpN"

if ! diff -u "$tmp1" "$tmpN"; then
  echo "per-trial fingerprints differ between --threads 1 and --threads $threads" >&2
  exit 1
fi
echo "record fingerprints byte-identical: threads=1 vs threads=$threads" \
     "($(wc -l < "$tmp1") cells, incl. tiled-rebuild and delta-path cells)"

