#!/usr/bin/env bash
# Pins the published bytes: frt_anonymize and frt_stream run with fixed
# seeds on two fixed inputs, and their releases must equal the committed
# goldens byte for byte. Their `audit:` stderr lines, less the timing
# field `build=`, must equal the committed audit goldens: the single-shot
# audit has one part, and each frt_stream window's audit has one part per
# shard. The inputs:
#   - straight (golden_{anonymize,stream}*): the 200-row input
#     anonymize_cli_test.sh builds, 10 straight lines of evenly spaced
#     points, so every published point lies on an original segment and the
#     audit reads 0.000/0.000;
#   - bent (data/bent_raw.csv, golden_bent_{anonymize,stream}*): 12
#     trajectories that bend once, with a dwell of jittered fixes at the
#     start and at the bend. A dwell's location is represented by the
#     centroid of its fixes, which lies off every original segment, so the
#     edits that insert it show in the audit's displacement.
# Two more frt_stream cases run under a budget, so they exit 3 and pin
# what is refused as well as what is published: a wholesale --budget run
# on the straight input (golden_budget_stream*) and a --per-object-budget
# --evict-exhausted run on an input whose ids recur across windows
# (golden_object_budget_stream*). Besides the release, each pins its
# summary lines (windows published and refused, trajectories evicted, the
# refusal and eviction warnings less their timestamp prefix) in
# *_summary.txt.
# The CLIs search with HG+ only; that every strategy publishes this same
# release is checked in-process by strategy_release_test. A change that
# alters a release on purpose (noise derivation, tie order, number
# formatting) regenerates the goldens and says why in CHANGES.md; any
# other diff is a regression.
#
# Usage: golden_release_test.sh /path/to/frt_anonymize /path/to/frt_stream \
#            [REGEN_DIR]
# With REGEN_DIR (e.g. tests/data), the fresh releases and audit lines are
# also copied there under their golden names.

set -u

ANON="${1:?usage: golden_release_test.sh FRT_ANONYMIZE FRT_STREAM [REGEN_DIR]}"
STREAM="${2:?usage: golden_release_test.sh FRT_ANONYMIZE FRT_STREAM [REGEN_DIR]}"
REGEN_DIR="${3:-}"
DATA="$(cd "$(dirname "$0")" && pwd)/data"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/frt_golden_XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# 200 rows: 10 trajectories of 20 points.
awk 'BEGIN { for (i = 0; i < 10; ++i) { x = 200 + i * 137; y = 300 + i * 251; t = 1000 + i; for (j = 0; j < 20; ++j) { printf "%d,%.1f,%.1f,%d\n", i, x, y, t; x += 40; y += 30; t += 60 } } }' \
  > "$WORK/raw.csv"

# run_case PREFIX RAW: publishes RAW with both CLIs and compares the
# releases and audit lines with $DATA/PREFIX{anonymize,stream}{.csv,_audit.txt}.
run_case() {
  local prefix="$1" raw="$2" name
  "$ANON" --input "$raw" --output "$WORK/${prefix}anonymize.csv" \
    --m 3 --seed 7 2> "$WORK/${prefix}anonymize.log" \
    || fail "frt_anonymize on $raw exited $?: $(cat "$WORK/${prefix}anonymize.log")"
  "$STREAM" --input "$raw" --output "$WORK/${prefix}stream.csv" \
    --window 5 --shards 2 --m 3 --seed 7 2> "$WORK/${prefix}stream.log" \
    || fail "frt_stream on $raw exited $?: $(cat "$WORK/${prefix}stream.log")"

  for name in "${prefix}anonymize" "${prefix}stream"; do
    sed -n 's/^\(audit: .*\) build=[0-9.]*s /\1 /p' "$WORK/$name.log" \
      > "$WORK/${name}_audit.txt"
    if [[ -n "$REGEN_DIR" ]]; then
      cp "$WORK/$name.csv" "$WORK/${name}_audit.txt" "$REGEN_DIR/"
    fi
  done

  for name in "${prefix}anonymize.csv" "${prefix}stream.csv" \
      "${prefix}anonymize_audit.txt" "${prefix}stream_audit.txt"; do
    local got="$WORK/$name"
    [[ -s "$got" ]] || fail "$name: empty release or no audit line"
    if ! cmp "$got" "$DATA/$name"; then
      diff "$DATA/$name" "$got" | head -20 >&2
      fail "$name differs from tests/data/$name"
    fi
    echo "ok: $name ($(wc -l < "$got") lines)"
  done
}

# run_budget_case NAME RAW FLAGS...: publishes RAW with frt_stream under
# FLAGS, requires exit 3 (something refused or evicted on budget), and
# compares the release and summary lines with $DATA/NAME{.csv,_summary.txt}.
run_budget_case() {
  local name="$1" raw="$2" status file
  shift 2
  "$STREAM" --input "$raw" --output "$WORK/$name.csv" --shards 2 --m 3 \
    --seed 7 "$@" 2> "$WORK/$name.log"
  status=$?
  [[ $status -eq 3 ]] \
    || fail "frt_stream $* on $raw exited $status, want 3: $(cat "$WORK/$name.log")"
  sed -n -e 's/^stream done in [0-9.]*s: /stream done: /p' \
    -e '/^per-object accounting: /p' -e '/^budget exhausted: /p' \
    -e 's/^\[WARN [^]]*\] //p' "$WORK/$name.log" > "$WORK/${name}_summary.txt"
  if [[ -n "$REGEN_DIR" ]]; then
    cp "$WORK/$name.csv" "$WORK/${name}_summary.txt" "$REGEN_DIR/"
  fi
  for file in "$name.csv" "${name}_summary.txt"; do
    [[ -s "$WORK/$file" ]] || fail "$file: empty release or no summary"
    if ! cmp "$WORK/$file" "$DATA/$file"; then
      diff "$DATA/$file" "$WORK/$file" | head -20 >&2
      fail "$file differs from tests/data/$file"
    fi
    echo "ok: $file ($(wc -l < "$WORK/$file") lines)"
  done
}

# 28 trajectories whose ids recur: windows of 5 hold each id at most once,
# and ids 0-2 come back until they exhaust a per-object budget of 2.
awk 'BEGIN { n = split("0 1 2 3 4 0 1 5 6 7 0 1 2 8 9 0 1 2 5 6 0 1 2 3 4 0 1 2", ids, " "); for (k = 1; k <= n; ++k) { x = 200 + k * 137; y = 300 + k * 251; t = 1000 + k * 2000; for (j = 0; j < 20; ++j) { printf "%d,%.1f,%.1f,%d\n", ids[k], x, y, t; x += 40; y += 30; t += 60 } } }' \
  > "$WORK/recur.csv"

run_case golden_ "$WORK/raw.csv"
run_case golden_bent_ "$DATA/bent_raw.csv"
run_budget_case golden_budget_stream "$WORK/raw.csv" --window 2 --budget 3
run_budget_case golden_object_budget_stream "$WORK/recur.csv" --window 5 \
  --per-object-budget 2 --evict-exhausted
[[ -n "$REGEN_DIR" ]] && echo "regenerated goldens in $REGEN_DIR"

echo "PASS: the releases and their audits match the goldens"
