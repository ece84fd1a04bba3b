#!/usr/bin/env bash
# rumor_serve load driver: the end-to-end service contract under concurrency.
#
# Phase 1 fires N concurrent clients, each streaming a mixed request sequence
# (run / sweep / bounds / fingerprint / stats, with repeats) at one daemon,
# and requires every stream to be fully served — no errors, no rejections,
# and exactly one cache insertion per distinct cell no matter how many
# clients raced for it. Phase 2 then pins the identity contract per cell:
# a cached repeat is byte-identical to its first serving (summary telemetry
# included — the cache serves the recorded bytes verbatim), the body replays
# through `rumor_cli replay`, and — after stripping wall-clock/RSS telemetry,
# the only legitimately varying fields — it is byte-identical to a direct
# `rumor_cli run --json` of the same cell. Phase 3 fills a --jobs 1 --queue 0
# daemon with a slow job (confirmed running via the stats verb, so there is
# no race) and requires the next simulating request to be rejected with a
# loud serve_reject record, exit code 4. Both daemons must shut down cleanly:
# exit 0, 'shut down cleanly' logged, socket file removed, no leaked workers.
#
# Usage: scripts/serve_load.sh path/to/rumor_serve path/to/rumor_cli [clients]
set -euo pipefail
serve=${1:?usage: serve_load.sh path/to/rumor_serve path/to/rumor_cli [clients]}
cli=${2:?usage: serve_load.sh path/to/rumor_serve path/to/rumor_cli [clients]}
clients=${3:-5}
for bin in "$serve" "$cli"; do
  if [ ! -x "$bin" ]; then
    echo "serve_load.sh: not found or not executable: '$bin'" >&2
    exit 2
  fi
done

fail() { echo "serve_load.sh: $*" >&2; exit 1; }
strip_telemetry() {
  sed -E 's/"(elapsed_seconds|peak_rss_mb)":[^,}]*[,}]//g'
}

work=$(mktemp -d)
sock="/tmp/rumor_load_$$.sock"   # short: sockaddr_un paths are ~100 bytes
daemon=""
cleanup() {
  [ -n "$daemon" ] && kill "$daemon" 2>/dev/null || true
  [ -n "$daemon" ] && wait "$daemon" 2>/dev/null || true
  rm -rf "$work" "$sock"
}
trap cleanup EXIT

start_daemon() {  # $1 = extra flags (word-split on purpose)
  # shellcheck disable=SC2086
  "$serve" serve --socket "$sock" $1 2>"$work/daemon.log" &
  daemon=$!
  for _ in $(seq 50); do [ -S "$sock" ] && break; sleep 0.1; done
  [ -S "$sock" ] || { cat "$work/daemon.log" >&2; fail "daemon did not bind $sock"; }
}
stop_daemon() {
  "$serve" client --socket "$sock" '{"id":"bye","cmd":"shutdown"}' >/dev/null \
    || fail "shutdown request failed"
  wait "$daemon" || fail "daemon exited non-zero"
  daemon=""
  grep -q 'shut down cleanly' "$work/daemon.log" \
    || { cat "$work/daemon.log" >&2; fail "daemon did not log a clean shutdown"; }
  [ -S "$sock" ] && fail "daemon left its socket file behind"
  return 0
}

# The cell vocabulary: distinct (scenario, params, options) cells A/B/D plus a
# two-cell sweep C. 5 distinct manifests total — the phase-1 insertion count.
req_a='{"id":"a","cmd":"run","scenario":"dynamic_star","n":48,"trials":5,"seed":2}'
req_b='{"id":"b","cmd":"run","scenario":"static_clique","n":32,"engine":"sync","trials":4,"seed":7}'
req_c='{"id":"c","cmd":"sweep","scenarios":"static_clique","engines":"async_jump,sync","sweep":"n=16","trials":3,"seed":1}'
req_d='{"id":"d","cmd":"bounds","scenario":"dynamic_star","n":32,"trials":3,"seed":4}'
req_fp='{"id":"fp","cmd":"fingerprint","scenario":"dynamic_star","n":48,"trials":5,"seed":2}'

# ---- phase 1: concurrent mixed streams -------------------------------------
start_daemon "--jobs 2 --queue 16"
for i in $(seq "$clients"); do
  {
    echo "$req_a"; echo "$req_c"; echo '{"id":"s","cmd":"stats"}'
    echo "$req_b"; echo "$req_a"; echo "$req_d"; echo "$req_fp"
  } > "$work/stream_$i"
  "$serve" client --socket "$sock" < "$work/stream_$i" > "$work/out_$i" 2>&1 &
  echo $! > "$work/pid_$i"
done
for i in $(seq "$clients"); do
  wait "$(cat "$work/pid_$i")" \
    || { cat "$work/out_$i" >&2; fail "client $i exited non-zero"; }
  grep -qE '"record":"serve_(error|reject)"' "$work/out_$i" \
    && { cat "$work/out_$i" >&2; fail "client $i saw an error/reject record"; }
  [ "$(grep -c '"record":"serve_done"' "$work/out_$i")" -eq 6 ] \
    || fail "client $i: expected 6 served requests"
done
stats=$("$serve" client --socket "$sock" '{"id":"s","cmd":"stats"}')
grep -q '"cache_insertions":5' <<<"$stats" \
  || fail "expected exactly 5 distinct cells inserted under load, got: $stats"
grep -q '"cache_entries":5' <<<"$stats" \
  || fail "expected 5 cache entries, got: $stats"
grep -q '"jobs_rejected":0' <<<"$stats" \
  || fail "no request should have been rejected in phase 1, got: $stats"

# ---- phase 2: cached-vs-fresh byte identity per cell -----------------------
check_cell() {  # $1 = request, $2 = matching rumor_cli args (empty = skip)
  local request=$1; shift
  "$serve" client --socket "$sock" "$request" > "$work/first" \
    || fail "cell query failed: $request"
  "$serve" client --socket "$sock" "$request" > "$work/second" \
    || fail "repeat cell query failed: $request"
  grep -q '"cache":"hit"' "$work/second" \
    || { cat "$work/second" >&2; fail "repeat query was not a cache hit"; }
  grep -E '"record":"(trial|summary)"' "$work/first" > "$work/body_first"
  grep -E '"record":"(trial|summary)"' "$work/second" > "$work/body_second"
  cmp -s "$work/body_first" "$work/body_second" \
    || fail "cached repeat is not byte-identical for: $request"
  # A served body is a recording: the replay harness must reproduce it.
  "$cli" replay "$work/body_first" >/dev/null \
    || fail "served body does not replay: $request"
  if [ $# -gt 0 ]; then
    "$cli" run "$@" --json | strip_telemetry > "$work/direct"
    strip_telemetry < "$work/body_first" > "$work/served"
    cmp -s "$work/served" "$work/direct" \
      || { diff "$work/served" "$work/direct" >&2 || true
           fail "served body differs from direct rumor_cli run: $request"; }
  fi
}
check_cell "$req_a" --scenario dynamic_star --n 48 --trials 5 --seed 2
check_cell "$req_b" --scenario static_clique --n 32 --engine sync --trials 4 --seed 7
check_cell "$req_d" --scenario dynamic_star --n 32 --trials 3 --seed 4 --bounds
stop_daemon

# ---- phase 3: admission control rejects, loudly ----------------------------
start_daemon "--jobs 1 --queue 0"
slow='{"id":"slow","cmd":"run","scenario":"dynamic_star","n":20000,"trials":200,"seed":9}'
"$serve" client --socket "$sock" "$slow" > "$work/slow_out" 2>&1 &
slow_pid=$!
busy=0
for _ in $(seq 100); do  # the stats verb needs no job slot, so this can't hang
  if "$serve" client --socket "$sock" '{"id":"s","cmd":"stats"}' \
       | grep -q '"jobs_active":1'; then busy=1; break; fi
  sleep 0.05
done
[ "$busy" -eq 1 ] || fail "slow job never showed up as active"
rc=0
out=$("$serve" client --socket "$sock" \
  '{"id":"rej","cmd":"run","scenario":"dynamic_star","n":16,"trials":2}') || rc=$?
[ "$rc" -eq 4 ] || fail "expected reject exit code 4 while saturated, got $rc"
grep -q '"record":"serve_reject"' <<<"$out" \
  || { echo "$out" >&2; fail "no serve_reject record while saturated"; }
wait "$slow_pid" || { cat "$work/slow_out" >&2; fail "slow client failed"; }
grep -q '"record":"serve_done"' "$work/slow_out" \
  || fail "slow request was never served"
stop_daemon

echo "serve load contract holds: $clients concurrent mixed streams, 5 cells," \
     "one insertion each; cached repeats byte-identical, replayable, and" \
     "matching direct rumor_cli; saturation rejected loudly; clean shutdowns"
