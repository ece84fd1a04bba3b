#!/usr/bin/env bash
# Records a perf snapshot of the scenario x engine grid as JSON lines.
#
# Sections of a snapshot (all JSON-lines, distinguished by "record"):
#   * "trial" / "summary"  — `rumor_cli sweep --json` per-trial records plus
#     one summary per grid cell, each summary carrying the reproducibility
#     manifest (build id included) and wall-clock elapsed_seconds;
#   * "scenario_matrix"    — bench_scenario_matrix --json: registry-wide
#     jump-engine throughput, one row per catalog scenario;
#   * "hw_info"            — `rumor_cli hwinfo`: the host's hardware thread
#     count, sanitizer and build id, so every snapshot names the machine
#     class that produced it (a flat thread curve on a 1-vCPU container reads
#     as exactly that, not as a scaling bug);
#   * "perf_counters"      — hardware counters on one pinned cell, when
#     `perf stat` works here.
#
# Usage: scripts/run_bench.sh [OUTPUT.json]     (default BENCH_3.json)
#   BUILD_DIR=build-release scripts/run_bench.sh    # alternate build tree
#   MATRIX=ci scripts/run_bench.sh bench_ci.json    # pinned small CI matrix
#   MATRIX=scale scripts/run_bench.sh bench_scale.json       # n=10^5 CI smoke
#   MATRIX=scale-full scripts/run_bench.sh BENCH_4.json      # n=10^6 + curve
#
# Successive snapshots (BENCH_2.json, BENCH_3.json, ...) are how scale/speed
# PRs demonstrate their wins: scripts/compare_bench.py diffs the throughput of
# matching summary manifests, and the CI perf job gates on it.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_3.json}
MATRIX=${MATRIX:-full}

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" --target rumor_cli -j"$(nproc)"
# Only the full matrix runs the registry-wide bench binary; the CI/scale
# matrices must work in a tools-only build tree (RUMOR_BUILD_BENCHES=OFF).
if [ "$MATRIX" = full ]; then
  cmake --build "$BUILD_DIR" --target bench_scenario_matrix -j"$(nproc)"
fi

cli="$BUILD_DIR/tools/rumor_cli"
: > "$OUT"

# Lead every snapshot with the hw_info record (thread budget, sanitizer,
# build id) so the summary/perf_counters lines below it can be interpreted
# against the machine class — the companion of the perf_counters record.
"$cli" hwinfo >> "$OUT"

# Refuse sanitized builds: sanitizer runtimes distort wall clock by 5-20x, so
# a TSan/ASan-built rumor_cli would poison every downstream trend comparison
# (compare_bench.py has no way to tell a regression from an instrumented
# binary). The hw_info record just written carries the build's sanitizer
# stamp; anything but "none" aborts before a single cell runs. Override with
# ALLOW_SANITIZER=1 only for debugging the harness itself.
sanitizer=$(grep -o '"sanitizer":"[^"]*"' "$OUT" | head -n1 | cut -d'"' -f4)
if [ "${sanitizer:-none}" != none ] && [ "${ALLOW_SANITIZER:-0}" != 1 ]; then
  echo "run_bench.sh: refusing to record a snapshot from a sanitized build" >&2
  echo "  (hw_info reports sanitizer=\"$sanitizer\"; rebuild without SANITIZE," >&2
  echo "   or set ALLOW_SANITIZER=1 to override for harness debugging)" >&2
  rm -f "$OUT"
  exit 3
fi

case "$MATRIX" in
  full)
    # 1. The BENCH_2-compatible scenario x engine grid.
    "$cli" sweep \
      --scenarios static_clique,static_expander,dynamic_star,clique_bridge,edge_markovian,mobile_geometric \
      --engines async_jump,async_tick,sync \
      --sweep n=128,256 \
      --trials 10 --seed 1 --threads 1 \
      --json >> "$OUT"
    # 2. Hot-path cells: large static graphs under the jump engine (the
    #    headline ≥2x acceptance cell is static_clique n=4096 async_jump).
    "$cli" sweep --scenarios static_clique --engines async_jump \
      --sweep n=1024,4096 --trials 10 --seed 1 --threads 1 --json >> "$OUT"
    "$cli" sweep --scenarios static_expander --engines async_jump \
      --sweep n=16384 --trials 10 --seed 1 --threads 1 --json >> "$OUT"
    # 3. Registry-wide jump-engine throughput rows.
    "$BUILD_DIR/bench/bench_scenario_matrix" --n 256 --trials 10 --seed 1 --json >> "$OUT"
    ;;
  ci)
    # Pinned small matrix for the CI perf gate: few cells, each big enough
    # for the wall clock to be meaningful on a shared runner.
    "$cli" sweep \
      --scenarios static_clique,dynamic_star,edge_markovian \
      --engines async_jump,sync \
      --sweep n=512 \
      --trials 30 --seed 1 --threads 1 --json >> "$OUT"
    "$cli" sweep --scenarios static_clique --engines async_jump,async_tick \
      --sweep n=2048 --trials 15 --seed 1 --threads 1 --json >> "$OUT"
    # The hardware-tier acceptance cell: the edge-Markovian n=10^6 hot path
    # at one thread — the single cell the SIMD kernels, bulk RNG tier, and
    # the serial-straggler work (tiled evolution boundary sweep, streaming
    # CSR fill) are gated on. Minutes-scale on purpose: wall clock at this
    # size is dominated by the kernels, not driver noise.
    "$cli" sweep --scenarios edge_markovian --engines async_jump \
      --sweep n=1000000 --p 1.6e-06 --q 0.2 \
      --trials 3 --seed 11 --threads 1 --json >> "$OUT"
    ;;
  scale)
    # Scale-tier CI smoke (the scale-smoke job): one 10^5-node static family
    # and one 10^5-node dynamic family under the jump engine at threads=4.
    # A dense graph is physically impossible at this scale (a 10^5-clique's
    # CSR alone is ~40 GB), so the static cell is the 320x320 torus — shared
    # immutable snapshot across trials — and the dynamic cell is
    # edge-Markovian pinned at mean degree 8 (p/(p+q)·n ≈ 8).
    "$cli" sweep --scenarios static_torus --engines async_jump \
      --rows 320 --cols 320 \
      --trials 8 --seed 1 --threads 4 --json >> "$OUT"
    "$cli" sweep --scenarios edge_markovian --engines async_jump \
      --sweep n=100000 --p 1.6e-05 --q 0.2 \
      --trials 8 --seed 1 --threads 4 --json >> "$OUT"
    ;;
  scale-full)
    # The BENCH_4 scale tier: a completed n=10^6 sweep for a static and a
    # dynamic family, each recorded at threads 1, 2, 4, 8 with identical
    # seeds — the thread axis is the scaling curve, and because per-trial
    # streams are counter-based the trial records must be bit-identical
    # across the four runs of a cell (README "Scaling").
    for threads in 1 2 4 8; do
      "$cli" sweep --scenarios static_torus --engines async_jump \
        --rows 1000 --cols 1000 \
        --trials 4 --seed 1 --threads "$threads" --json >> "$OUT"
      "$cli" sweep --scenarios edge_markovian --engines async_jump \
        --sweep n=1000000 --p 1.6e-06 --q 0.2 \
        --trials 3 --seed 1 --threads "$threads" --json >> "$OUT"
      # The PR 5 acceptance cell: mean degree 8 held at q=0.5 — maximum
      # churn for the tiled evolution (≈4M births+deaths per step).
      "$cli" sweep --scenarios edge_markovian --engines async_jump \
        --sweep n=1000000 --p 4e-06 --q 0.5 \
        --trials 3 --seed 1 --threads "$threads" --json >> "$OUT"
    done
    ;;
  *)
    echo "unknown MATRIX '$MATRIX' (known: full, ci, scale, scale-full)" >&2
    exit 2
    ;;
esac

# Hardware counters on one pinned hot-path cell (the headline static_clique
# jump-engine cell), recorded as a {"record":"perf_counters",...} line:
# raw counts plus derived IPC and cache-miss rate — the two metrics the
# tiled/arena work optimizes for. Gracefully skipped when `perf` is absent
# or the kernel forbids counters (containers, locked-down CI runners); the
# snapshot is complete without it.
if [[ "$MATRIX" != scale* ]]; then
  perf_tmp=$(mktemp)
  if perf stat -x, -e cycles,instructions,cache-references,cache-misses \
       -o "$perf_tmp" -- "$cli" run --scenario static_clique --n 1024 \
       --engine async_jump --trials 5 --seed 1 --json > /dev/null 2>/dev/null; then
    python3 - "$perf_tmp" >> "$OUT" <<'EOF'
import json
import sys

counts = {}
with open(sys.argv[1]) as f:
    for line in f:
        parts = line.strip().split(",")
        if len(parts) < 3:
            continue
        try:
            value = float(parts[0])
        except ValueError:
            continue  # <not supported> / <not counted> / header text
        counts[parts[2].split(":")[0].replace("-", "_")] = value
record = {"record": "perf_counters",
          "cell": "static_clique n=1024 async-jump push-pull trials=5 seed=1"}
record.update({k: counts[k] for k in sorted(counts)})
if counts.get("cycles"):
    record["ipc"] = counts.get("instructions", 0.0) / counts["cycles"]
if counts.get("cache_references"):
    record["cache_miss_rate"] = counts.get("cache_misses", 0.0) / counts["cache_references"]
print(json.dumps(record, separators=(",", ":")))
EOF
    echo "captured hardware counters for the pinned cell" >&2
  else
    echo "perf stat unavailable — skipping hardware counter capture" >&2
  fi
  rm -f "$perf_tmp"
fi

echo "wrote $OUT ($(grep -c '"record":"summary"' "$OUT") summary records)" >&2
