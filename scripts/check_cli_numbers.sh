#!/usr/bin/env bash
# CLI number-grammar smoke: rumor_cli reads numeric options as whole tokens in
# the manifest's JSON number grammar, and the runner columns (trials, seed,
# threads, chunk) within the ranges the manifest accepts. Each negative probe,
# and replay's --threads override, must exit 2 with an error naming the
# option before any trial runs — never run with a prefix of the token, a
# wrapped integer or a default of 0. An empty grid axis or a nameless sweep
# is a named error, exit 2, as well. The positive leg proves ordinary
# spellings still parse and reach the manifest unchanged.
#
# Usage: scripts/check_cli_numbers.sh path/to/rumor_cli
set -euo pipefail
cli=${1:?usage: check_cli_numbers.sh path/to/rumor_cli}
if [ ! -x "$cli" ]; then
  echo "check_cli_numbers.sh: rumor_cli not found or not executable at '$cli'" >&2
  echo "  build it first: cmake --build build --target rumor_cli" >&2
  exit 2
fi

err=$(mktemp)
rec=$(mktemp)
trap 'rm -f "$err" "$rec"' EXIT
fail() { echo "check_cli_numbers.sh: $1" >&2; exit 1; }
run=(run --scenario dynamic_star --n 16 --json)

# --- negative: each probe is a named error, exit 2, nothing on stdout --------
probes=(
  "--trials 3abc|--trials"
  "--trials 4294967298|'trials' is out of range"
  "--seed -1|'seed' expects a uint64 integer"
  "--chunk -1|'chunk_trials' is out of range"
  "--clock-rate abc|'--clock-rate' expects a finite number"
  "--failure 0.1x|'--failure' expects a finite number"
)
for probe in "${probes[@]}"; do
  read -r -a args <<< "${probe%%|*}"
  expected=${probe#*|}
  if out=$("$cli" "${run[@]}" "${args[@]}" 2> "$err"); then
    fail "rumor_cli accepted ${args[*]}"
  else
    status=$?
  fi
  [ "$status" -eq 2 ] || { cat "$err" >&2; fail "${args[*]} exited $status, not 2"; }
  [ -z "$out" ] || fail "${args[*]} wrote records before failing"
  grep -qF -- "$expected" "$err" \
    || { cat "$err" >&2; fail "error for ${args[*]} does not say: $expected"; }
done

# --- negative: a grid axis that lists no names, or a sweep that names no -----
# parameter, is a named error too: it once ran zero cells, or the default cell
# once per value, and exited 0.
grid_probes=(
  "--engines ,|'--engines'"
  "--sweep =16,32|'--sweep'"
)
for probe in "${grid_probes[@]}"; do
  read -r -a args <<< "${probe%%|*}"
  expected=${probe#*|}
  if out=$("$cli" sweep --scenario dynamic_star --trials 2 "${args[@]}" 2> "$err"); then
    fail "rumor_cli sweep accepted ${args[*]}"
  else
    status=$?
  fi
  [ "$status" -eq 2 ] || { cat "$err" >&2; fail "sweep ${args[*]} exited $status, not 2"; }
  [ -z "$out" ] || fail "sweep ${args[*]} wrote output before failing"
  grep -qF -- "$expected" "$err" \
    || { cat "$err" >&2; fail "error for sweep ${args[*]} does not name $expected"; }
done

# --- negative: replay's thread override is range-checked too ----------------
# (4294967298 would otherwise narrow to an override of 2 threads.)
"$cli" "${run[@]}" --trials 2 > "$rec"
if "$cli" replay "$rec" --threads 4294967298 > /dev/null 2> "$err"; then
  fail "replay accepted --threads 4294967298"
else
  status=$?
fi
[ "$status" -eq 2 ] || { cat "$err" >&2; fail "replay --threads 4294967298 exited $status, not 2"; }
grep -qF -- "'threads' is out of range" "$err" \
  || { cat "$err" >&2; fail "replay error does not name the out-of-range 'threads'"; }

# --- positive: ordinary spellings reach the manifest as written --------------
summary=$("$cli" "${run[@]}" --trials 3 --seed 18446744073709551615 --chunk 2 \
  --clock-rate 0.5 --failure 0.25 | grep '"record":"summary"')
for field in '"trials":3,' '"seed":18446744073709551615,' '"chunk_trials":2,' \
             '"clock_rate":0.5,' '"transmission_failure_prob":0.25'; do
  grep -qF -- "$field" <<< "$summary" || fail "summary lacks $field: $summary"
done

echo "cli number grammar OK: ${#probes[@]} malformed or out-of-range run values," \
     "${#grid_probes[@]} empty grid options and an out-of-range replay --threads rejected" \
     "with named errors; valid spellings recorded as written"
