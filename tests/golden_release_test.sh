#!/usr/bin/env bash
# Pins the published bytes: frt_anonymize and frt_stream run on a fixed
# 200-row input (the one anonymize_cli_test.sh builds) with fixed seeds,
# and their releases must equal the committed goldens byte for byte. Their
# `audit:` stderr lines, less the timing field `build=`, must equal
# golden_{anonymize,stream}_audit.txt: the single-shot audit has one part,
# and each frt_stream window's audit has one part per shard. The
# CLIs search with HG+ only; that every strategy publishes this same
# release is checked in-process by strategy_release_test. A change that
# alters a release on purpose (noise derivation, tie order, number
# formatting) regenerates the goldens and says why in CHANGES.md; any
# other diff is a regression.
#
# Usage: golden_release_test.sh /path/to/frt_anonymize /path/to/frt_stream \
#            [REGEN_DIR]
# With REGEN_DIR (e.g. tests/data), the fresh releases and audit lines are
# also copied there as golden_anonymize.csv, golden_stream.csv,
# golden_anonymize_audit.txt and golden_stream_audit.txt.

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

"$ANON" --input "$WORK/raw.csv" --output "$WORK/golden_anonymize.csv" \
  --m 3 --seed 7 2> "$WORK/anonymize.log" \
  || fail "frt_anonymize exited $?: $(cat "$WORK/anonymize.log")"
"$STREAM" --input "$WORK/raw.csv" --output "$WORK/golden_stream.csv" \
  --window 5 --shards 2 --m 3 --seed 7 2> "$WORK/stream.log" \
  || fail "frt_stream exited $?: $(cat "$WORK/stream.log")"

for name in anonymize stream; do
  sed -n 's/^\(audit: .*\) build=[0-9.]*s /\1 /p' "$WORK/$name.log" \
    > "$WORK/golden_${name}_audit.txt"
done

if [[ -n "$REGEN_DIR" ]]; then
  cp "$WORK/golden_anonymize.csv" "$WORK/golden_stream.csv" \
    "$WORK/golden_anonymize_audit.txt" "$WORK/golden_stream_audit.txt" \
    "$REGEN_DIR/"
  echo "regenerated goldens in $REGEN_DIR"
fi

for name in golden_anonymize golden_stream; do
  got="$WORK/$name.csv"
  [[ -s "$got" ]] || fail "$name: empty release"
  if ! cmp "$got" "$DATA/$name.csv"; then
    diff "$DATA/$name.csv" "$got" | head -20 >&2
    fail "$name: release differs from tests/data/$name.csv"
  fi
  echo "ok: $name ($(wc -l < "$got") lines)"
done

for name in golden_anonymize_audit golden_stream_audit; do
  got="$WORK/$name.txt"
  [[ -s "$got" ]] || fail "$name: no audit line"
  if ! cmp "$got" "$DATA/$name.txt"; then
    diff "$DATA/$name.txt" "$got" | head -20 >&2
    fail "$name: audit differs from tests/data/$name.txt"
  fi
  echo "ok: $name ($(wc -l < "$got") lines)"
done

echo "PASS: the releases and their audits match the goldens"
