#!/usr/bin/env bash
# Replay harness smoke: record a sweep, then prove both directions of the
# contract end to end through `rumor_cli replay`:
#
#   positive — replaying the fresh recording reproduces every record byte for
#     byte (exit 0), including under a --threads override, since the records
#     are invariant to execution topology;
#   negative — a deliberately perturbed record fails with a divergence
#     message naming the trial and field; a corrupted manifest (unknown
#     scenario), a manifest that repeats a field (which must never read as
#     "first one wins"), a source outside the 32-bit node range (which must
#     never be narrowed) and a truncated recording fail with named,
#     actionable errors;
#     an option replay does not know (--shards, or the --thread typo) is a
#     usage error naming it, never a silent replay at the recorded topology.
#
# The negative legs are the teeth: they prove replay actually compares bytes
# rather than vacuously succeeding.
#
# Usage: scripts/check_replay.sh path/to/rumor_cli
set -euo pipefail
cli=${1:?usage: check_replay.sh path/to/rumor_cli}
if [ ! -x "$cli" ]; then
  echo "check_replay.sh: rumor_cli not found or not executable at '$cli'" >&2
  echo "  build it first: cmake --build build --target rumor_cli" >&2
  exit 2
fi

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
rec=$dir/recorded.jsonl

fail() { echo "check_replay.sh: $1" >&2; exit 1; }

# One static and two dynamic families, both engine kinds: 4 cells, 12 trials.
"$cli" sweep --scenarios clique_bridge,edge_markovian --engines async_jump,sync \
  --sweep n=48 --trials 3 --seed 11 --json > "$rec"

# --- positive: fresh recording replays byte-identically ---------------------
"$cli" replay "$rec" > /dev/null \
  || fail "replay of a fresh recording did not reproduce it"
"$cli" replay "$rec" --threads 4 > /dev/null \
  || fail "replay --threads 4 did not reproduce the single-threaded recording"

# The recording's fingerprint must match a from-scratch fingerprint of the
# same grid — file mode hashes recorded bytes, grid mode hashes a re-run.
diff <("$cli" fingerprint "$rec") \
     <("$cli" fingerprint --scenarios clique_bridge,edge_markovian \
         --engines async_jump,sync --sweep n=48 --trials 3 --seed 11) \
  || fail "fingerprint of the recording differs from a fresh fingerprint run"

# --- negative: perturbed record must fail naming trial and field ------------
sed '2s/"spread_time":[0-9.e+-]*/"spread_time":1234.5/' "$rec" > "$dir/perturbed.jsonl"
cmp -s "$rec" "$dir/perturbed.jsonl" && fail "perturbation sed matched nothing"
if "$cli" replay "$dir/perturbed.jsonl" > /dev/null 2> "$dir/err"; then
  fail "replay accepted a perturbed record"
fi
grep -q "trial 1" "$dir/err" && grep -q "spread_time" "$dir/err" \
  || { cat "$dir/err" >&2; fail "divergence message does not name trial 1 / spread_time"; }

# --- negative: corrupted manifest names the unknown scenario ----------------
sed 's/"manifest":{"scenario":"clique_bridge"/"manifest":{"scenario":"no_such_scenario"/' \
  "$rec" > "$dir/badscenario.jsonl"
cmp -s "$rec" "$dir/badscenario.jsonl" && fail "scenario perturbation sed matched nothing"
if "$cli" replay "$dir/badscenario.jsonl" > /dev/null 2> "$dir/err"; then
  fail "replay accepted a manifest with an unknown scenario"
fi
grep -q "no_such_scenario" "$dir/err" \
  || { cat "$dir/err" >&2; fail "error does not name the unknown scenario"; }

# --- negative: a repeated manifest field is a named error, exit 2 ----------
sed 's/"trials":\([0-9]*\),"seed"/"trials":\1,"trials":\1,"seed"/' "$rec" > "$dir/dupkey.jsonl"
cmp -s "$rec" "$dir/dupkey.jsonl" && fail "duplicate-key sed matched nothing"
if "$cli" replay "$dir/dupkey.jsonl" > /dev/null 2> "$dir/err"; then
  fail "replay accepted a manifest that repeats \"trials\""
else
  status=$?
fi
[ "$status" -eq 2 ] || { cat "$dir/err" >&2; fail "replay of a repeated key exited $status, not 2"; }
grep -q "duplicate key 'trials'" "$dir/err" \
  || { cat "$dir/err" >&2; fail "error does not name the duplicate key 'trials'"; }

# --- negative: an out-of-range source is a named error, exit 2 -------------
# NodeId is 32-bit: 2^32 must be rejected, not narrowed to source 0.
sed 's/"source":-1,/"source":4294967296,/' "$rec" > "$dir/bigsource.jsonl"
cmp -s "$rec" "$dir/bigsource.jsonl" && fail "source sed matched nothing"
if "$cli" replay "$dir/bigsource.jsonl" > /dev/null 2> "$dir/err"; then
  fail "replay accepted a manifest with \"source\":4294967296"
else
  status=$?
fi
[ "$status" -eq 2 ] \
  || { cat "$dir/err" >&2; fail "replay of an out-of-range source exited $status, not 2"; }
grep -q "'source' is out of range" "$dir/err" \
  || { cat "$dir/err" >&2; fail "error does not name the out-of-range 'source'"; }

# --- negative: truncated records are detected before any re-run -------------
sed '2d' "$rec" > "$dir/truncated.jsonl"
if "$cli" replay "$dir/truncated.jsonl" > /dev/null 2> "$dir/err"; then
  fail "replay accepted a truncated recording"
fi
grep -q "truncated records" "$dir/err" \
  || { cat "$dir/err" >&2; fail "error does not report the truncation"; }

# --- negative: unknown options are usage errors, not ignored ----------------
for arg in --shards=2 --thread=4 --bogus=7; do
  opt=${arg%%=*}
  if "$cli" replay "$rec" "$opt" "${arg#*=}" > /dev/null 2> "$dir/err"; then
    fail "replay accepted the unknown option '$opt'"
  else
    status=$?
  fi
  [ "$status" -eq 2 ] || { cat "$dir/err" >&2; fail "replay $opt exited $status, not 2"; }
  grep -q "unknown option '$opt'" "$dir/err" \
    || { cat "$dir/err" >&2; fail "error for '$opt' does not name the option"; }
done

echo "replay smoke OK: fresh recording byte-identical (incl. --threads 4);" \
     "perturbed record, corrupt manifest, repeated manifest field," \
     "out-of-range source, truncated records and unknown options all fail" \
     "with named errors"
