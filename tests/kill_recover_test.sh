#!/usr/bin/env bash
# Crash/recover harness for the durable budget ledgers (ISSUE 6).
#
# Phase 0: malformed numeric flag values, and budgets that are not a
#          finite number >= 0, are usage errors naming the flag (exit 2),
#          never a silent zero or unenforced budget.
# Phase 1: frt_serve is fed through a FIFO with checkpointing on, SIGKILLed
#          mid-stream, then restarted over the full feed with the same
#          --state-dir. The durable ledgers must carry: recovery is
#          reported, spend never shrinks, and the per-feed spend recorded
#          in the final checkpoint never exceeds the wholesale budget.
# Phase 2: per-object mode across a restart: the recovered per-object
#          floor keeps every object under --per-object-budget, so a window
#          that would push any object past it publishes nothing.
#
# Usage: kill_recover_test.sh /path/to/frt_serve

set -u

SERVE="${1:?usage: kill_recover_test.sh /path/to/frt_serve}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/frt_kill_recover_XXXXXX")"
SERVE_PID=""

cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Interleaved multi-feed CSV: feed,traj_id,x,y,t. 60 trajectories per feed
# (3 windows of 20), 24 points each, ids unique per feed. With
# --epsilon-global 0.5 --epsilon-local 0.5 each published window costs 1.0.
awk 'BEGIN {
  for (i = 0; i < 60; i++)
    for (f = 0; f < 2; f++) {
      x = 200 + (i * 137) % 1700; y = 300 + (i * 251) % 1500; t = 1000 + i
      for (j = 0; j < 24; j++) {
        printf "feed%d,%d,%f,%f,%d\n", f, i, x, y, t
        x += 35 + (j * 11) % 20; y += 25 + ((i + j) * 13) % 30; t += 60
      }
    }
}' > "$WORK/full.csv"

STREAM_FLAGS=(--window 20 --epsilon-global 0.5 --epsilon-local 0.5
              --shards 2 --seed 11 --checkpoint-interval-ms 20)
CKPT="$WORK/state/budget_ledgers.ckpt"

# --- Phase 0: strict flag parsing at the CLI boundary -----------------------
"$SERVE" --feeds "$WORK/full.csv" --output - --budget bogus \
  "${STREAM_FLAGS[@]}" >/dev/null 2> "$WORK/flag.err"
code=$?
[[ $code -eq 2 ]] || fail "invalid --budget exited $code, want 2"
grep -q -- "--budget" "$WORK/flag.err" ||
  fail "usage error does not name --budget: $(cat "$WORK/flag.err")"
# A budget must be a finite epsilon >= 0: inf or nan would publish every
# window with no budget enforced, and a negative one means nothing.
for flag in --budget --per-object-budget; do
  for value in inf nan -1; do
    "$SERVE" --feeds "$WORK/full.csv" --output - "$flag" "$value" \
      "${STREAM_FLAGS[@]}" >/dev/null 2> "$WORK/flag.err"
    code=$?
    [[ $code -eq 2 ]] || fail "$flag $value exited $code, want 2"
    grep -q -- "$flag" "$WORK/flag.err" ||
      fail "usage error does not name $flag: $(head -1 "$WORK/flag.err")"
  done
done

# --- Phase 1: SIGKILL mid-stream, recover, never over-grant -----------------
BUDGET=4.0
mkfifo "$WORK/feed.fifo"
"$SERVE" --feeds "$WORK/feed.fifo" --output "$WORK/out1.csv" \
  --budget "$BUDGET" --state-dir "$WORK/state" \
  "${STREAM_FLAGS[@]}" 2> "$WORK/run1.err" &
SERVE_PID=$!

# Hold the write end open and feed enough for ~2 windows per feed.
exec 3> "$WORK/feed.fifo"
head -n 2000 "$WORK/full.csv" >&3

# Wait until at least one window per feed is durably spent, then SIGKILL.
spent_one() {
  [[ -s "$CKPT" ]] &&
    awk '$1 == "feed" && $4 + 0 >= 1 { n++ } END { exit n >= 2 ? 0 : 1 }' \
      "$CKPT"
}
for _ in $(seq 1 300); do
  spent_one && break
  kill -0 "$SERVE_PID" 2>/dev/null || fail "run 1 exited before the kill:
$(cat "$WORK/run1.err")"
  sleep 0.1
done
spent_one || fail "no durable spend after 30s: $(cat "$CKPT" 2>/dev/null)"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null
SERVE_PID=""
exec 3>&-

cp "$CKPT" "$WORK/ckpt.after_kill"

# Restart over the FULL feed with the same state dir.
"$SERVE" --feeds "$WORK/full.csv" --output "$WORK/out2.csv" \
  --budget "$BUDGET" --state-dir "$WORK/state" \
  "${STREAM_FLAGS[@]}" 2> "$WORK/run2.err"
code=$?
# 0 (everything fit) or 3 (budget refusals) are both legitimate outcomes;
# anything else is a recovery failure.
[[ $code -eq 0 || $code -eq 3 ]] || fail "run 2 exited $code:
$(cat "$WORK/run2.err")"
grep -q "recovered 2 feed(s)" "$WORK/run2.err" ||
  fail "run 2 did not recover both feeds: $(cat "$WORK/run2.err")"

# Ledger invariants: spend never shrinks across the restart, and the final
# durable spend per feed never exceeds the budget.
awk -v budget="$BUDGET" '
  NR == FNR { if ($1 == "feed") before[$6] = $4 + 0; next }
  $1 == "feed" {
    after = $4 + 0
    if (after + 1e-9 < before[$6]) {
      printf "feed %s spend shrank: %s -> %s\n", $6, before[$6], after
      bad = 1
    }
    if (after > budget + 1e-9) {
      printf "feed %s over budget: spent %s of %s\n", $6, after, budget
      bad = 1
    }
    checked++
  }
  END { exit (bad || checked != 2) ? 1 : 0 }
' "$WORK/ckpt.after_kill" "$CKPT" || fail "phase 1 ledger invariant violated:
--- after kill ---
$(cat "$WORK/ckpt.after_kill")
--- final ---
$(cat "$CKPT")"

# The budget covers 4 windows per feed and the feed holds only 3, so the
# restart always publishes at least one window (recovery must not
# over-charge into refusing everything).
awk '!/^#/ && NF' "$WORK/out2.csv" | grep -q . ||
  fail "run 2 published nothing after recovery"

# --- Phase 2: per-object floor carries across a restart ---------------------
# Ids recycle every 20 trajectories: each object reappears in every window,
# spending 1.0 per published window against a 1.5 per-object budget.
awk 'BEGIN {
  for (i = 0; i < 60; i++) {
    x = 200 + (i * 137) % 1700; y = 300 + (i * 251) % 1500; t = 1000 + i
    for (j = 0; j < 24; j++) {
      printf "taxi,%d,%f,%f,%d\n", i % 20, x, y, t
      x += 35 + (j * 11) % 20; y += 25 + ((i + j) * 13) % 30; t += 60
    }
  }
}' > "$WORK/recycled.csv"

PO_STATE="$WORK/state_po"
PO_CKPT="$PO_STATE/budget_ledgers.ckpt"
run_po() {
  "$SERVE" --feeds "$WORK/recycled.csv" --output "$1" \
    --per-object-budget 1.5 --state-dir "$PO_STATE" \
    "${STREAM_FLAGS[@]}" 2> "$2"
}

run_po "$WORK/out_po1.csv" "$WORK/po1.err"
[[ $? -eq 3 ]] || fail "per-object run 1 should refuse on budget (exit 3)"
awk '$1 == "feed" { exit ($5 + 0 > 1.5 + 1e-9) ? 1 : 0 }' "$PO_CKPT" ||
  fail "per-object floor exceeds budget after run 1: $(cat "$PO_CKPT")"

run_po "$WORK/out_po2.csv" "$WORK/po2.err"
[[ $? -eq 3 ]] || fail "per-object run 2 should refuse on budget (exit 3)"
grep -q "recovered 1 feed(s)" "$WORK/po2.err" ||
  fail "per-object run 2 did not recover: $(cat "$WORK/po2.err")"
# Every object starts at the recovered 1.0 floor; one more 1.0 window
# would cross 1.5, so nothing may publish.
[[ "$(awk '!/^#/ && NF' "$WORK/out_po2.csv" | wc -l)" -eq 0 ]] ||
  fail "per-object run 2 published past the recovered floor"
awk '$1 == "feed" { exit ($5 + 0 > 1.5 + 1e-9) ? 1 : 0 }' "$PO_CKPT" ||
  fail "per-object floor exceeds budget after run 2: $(cat "$PO_CKPT")"

echo "kill_recover_test: OK"
