#!/usr/bin/env bash
# rumor_serve surface smoke: help text, argument validation (daemon flags
# outside their ranges among it), and the client's exit-code contract
# against a live daemon — served requests exit 0, bad
# requests (an empty grid axis or a nameless sweep among them) exit 3 with a
# named serve_error record and run no simulation, stats/shutdown verbs work,
# and the daemon exits 0 after a clean shutdown.
# The heavier concurrent-load and cache-identity checks live in serve_load.sh.
#
# Usage: scripts/check_serve_cli.sh path/to/rumor_serve
set -euo pipefail
serve=${1:?usage: check_serve_cli.sh path/to/rumor_serve}
if [ ! -x "$serve" ]; then
  echo "check_serve_cli.sh: rumor_serve not found or not executable at '$serve'" >&2
  echo "  build it first: cmake --build build --target rumor_serve" >&2
  exit 2
fi

# Names the failed check, then shows the daemon log and the last client
# output, so a failure explains itself.
log=""
out=""
fail() {
  echo "check_serve_cli.sh: $*" >&2
  [ -f "$log" ] && { echo "--- daemon log:"; cat "$log"; } >&2
  [ -n "$out" ] && printf -- '--- last client output:\n%s\n' "$out" >&2
  exit 1
}

# --- offline surface: help and argument validation --------------------------
"$serve" --help | grep -q 'usage: rumor_serve' || fail "--help lacks usage text"
"$serve" help >/dev/null || fail "help subcommand should exit 0"

"$serve" 2>/dev/null && fail "no subcommand should exit non-zero" || [ $? -eq 2 ] \
  || fail "no subcommand should exit 2"
"$serve" dance 2>/dev/null && fail "unknown subcommand should exit non-zero" \
  || [ $? -eq 2 ] || fail "unknown subcommand should exit 2"
"$serve" serve 2>/dev/null && fail "serve without --socket should exit non-zero" \
  || [ $? -eq 2 ] || fail "serve without --socket should exit 2"
"$serve" client 2>/dev/null </dev/null \
  && fail "client without --socket should exit non-zero" \
  || [ $? -eq 2 ] || fail "client without --socket should exit 2"
"$serve" client --socket /tmp/rumor_absent_$$.sock '{"cmd":"stats"}' 2>/dev/null \
  && fail "client with no daemon should exit non-zero" \
  || [ $? -eq 2 ] || fail "client with no daemon should exit 2"

# Daemon flags read through checked ranges: a value outside a flag's range
# exits 2 with an error naming the flag, before any socket is bound (a
# narrowed --max-cells 4294967298 would admit 2 cells). The timeout turns a
# daemon that starts anyway into a failure instead of a hang.
probe_sock="/tmp/rumor_flag_$$.sock"
for probe in "max-cells|4294967298" "jobs|0" "queue|-1" "threads|0" \
  "max-trials|2147483648" "cache-mb|17592186044416"; do
  flag=${probe%%|*}
  value=${probe#*|}
  rc=0
  err=$(timeout 10 "$serve" serve --socket "$probe_sock" "--$flag" "$value" 2>&1 >/dev/null) \
    || rc=$?
  if [ -e "$probe_sock" ]; then
    rm -f "$probe_sock"
    fail "serve --$flag $value bound its socket"
  fi
  [ "$rc" -eq 2 ] || fail "serve --$flag $value should exit 2 (got $rc)"
  grep -qF -- "--$flag" <<<"$err" || fail "serve --$flag $value error does not name the flag: $err"
done

# --- online surface: exit codes against a live daemon -----------------------
sock="/tmp/rumor_smoke_$$.sock"
log=$(mktemp)
"$serve" serve --socket "$sock" 2>"$log" &
daemon=$!
cleanup() {
  kill "$daemon" 2>/dev/null || true
  wait "$daemon" 2>/dev/null || true
  rm -f "$sock" "$log"
}
trap cleanup EXIT
# The socket file appears at bind(), before listen(); the log line comes
# after listen(), so only it says that a client can connect.
for _ in $(seq 50); do grep -q 'rumor_serve: listening on' "$log" && break; sleep 0.1; done
grep -q 'rumor_serve: listening on' "$log" || fail "daemon is not listening on $sock"

out=$("$serve" client --socket "$sock" \
  '{"id":"ok","cmd":"run","scenario":"dynamic_star","n":16,"trials":2}') \
  || fail "served request should exit 0"
grep -q '"record":"serve_done"' <<<"$out" || fail "served request lacks serve_done"

# Bad requests: exit 3, a named serve_error, and nothing simulated.
for bad in \
  '{"id":"b1","cmd":"dance"}' \
  '{"id":"b2","cmd":"run"}' \
  '{"id":"b3","cmd":"run","scenario":"no_such_scenario"}' \
  '{"id":"b4","cmd":"run","scenario":"dynamic_star","threads":4}' \
  'not json at all'; do
  rc=0
  out=$("$serve" client --socket "$sock" "$bad") || rc=$?
  [ "$rc" -eq 3 ] || fail "bad request should exit 3 (got $rc): $bad"
  grep -q '"record":"serve_error"' <<<"$out" || fail "no serve_error for: $bad"
done
out=$("$serve" client --socket "$sock" \
  '{"id":"b4","cmd":"run","scenario":"dynamic_star","threads":4}') || true
grep -q "server's concern" <<<"$out" \
  || fail "topology rejection should name the policy"
# An axis that lists no names, or a sweep that names no parameter: exit 3 and
# a serve_error naming the field, never zero cells or duplicated default cells.
for probe in \
  "engines|{\"id\":\"e1\",\"cmd\":\"sweep\",\"scenario\":\"dynamic_star\",\"engines\":\",\",\"trials\":2}" \
  "sweep|{\"id\":\"e2\",\"cmd\":\"sweep\",\"scenario\":\"dynamic_star\",\"sweep\":\"=16,32\",\"trials\":2}"; do
  field=${probe%%|*}
  rc=0
  out=$("$serve" client --socket "$sock" "${probe#*|}") || rc=$?
  [ "$rc" -eq 3 ] || fail "empty '$field' should exit 3 (got $rc)"
  grep -q '"record":"serve_error"' <<<"$out" || fail "no serve_error for empty '$field'"
  grep -qF "'$field'" <<<"$out" || fail "serve_error does not name '$field'"
done

stats=$("$serve" client --socket "$sock" '{"id":"s","cmd":"stats"}') \
  || fail "stats should exit 0"
grep -q '"cache_misses":1' <<<"$stats" \
  || fail "expected exactly one simulated cell, got: $stats"

"$serve" client --socket "$sock" '{"id":"x","cmd":"shutdown"}' >/dev/null \
  || fail "shutdown request should exit 0"
wait "$daemon" || fail "daemon should exit 0 after a requested shutdown"
grep -q 'shut down cleanly' "$log" || fail "no clean-shutdown log"
[ -S "$sock" ] && fail "daemon left its socket file behind"
trap - EXIT
rm -f "$log"

echo "rumor_serve surface contract holds: usage/exit codes, flag ranges, named" \
     "serve_error records, topology rejection, clean shutdown"
