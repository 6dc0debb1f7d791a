#!/usr/bin/env bash
# frt_anonymize refuses input with a non-finite coordinate: strtod parses
# nan, inf and infinity, and one such point would poison the grid region
# (and every displacement) of the whole batch. The run must exit 1, name
# the line, and write no release. The same input with the row fixed runs.
#
# Usage: anonymize_cli_test.sh /path/to/frt_anonymize

set -u

ANON="${1:?usage: anonymize_cli_test.sh /path/to/frt_anonymize}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/frt_anonymize_cli_XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# 200 rows: 10 trajectories of 20 points. Row 101 (line 101) is patched.
awk 'BEGIN { for (i = 0; i < 10; ++i) { x = 200 + i * 137; y = 300 + i * 251; t = 1000 + i; for (j = 0; j < 20; ++j) { printf "%d,%.1f,%.1f,%d\n", i, x, y, t; x += 40; y += 30; t += 60 } } }' \
  > "$WORK/good.csv"

"$ANON" --input "$WORK/good.csv" --output "$WORK/good_out.csv" --m 3 \
  2> "$WORK/good.log" || fail "clean input exited $?"
[[ -s "$WORK/good_out.csv" ]] || fail "clean input published nothing"

for row in "999,nan,15000.0,5" "5,1000.0,-inf,5" "5,infinity,1500.0,5" \
           "5,1000.0,NaN,5"; do
  awk -v row="$row" 'NR == 101 { print row; next } { print }' \
    "$WORK/good.csv" > "$WORK/bad.csv"
  rm -f "$WORK/bad_out.csv"
  "$ANON" --input "$WORK/bad.csv" --output "$WORK/bad_out.csv" --m 3 \
    2> "$WORK/bad.log"
  code=$?
  [[ "$code" == "1" ]] || fail "'$row': exited $code, want 1"
  grep -q "line 101" "$WORK/bad.log" || fail "'$row': error does not name line 101"
  [[ -e "$WORK/bad_out.csv" ]] && fail "'$row': wrote a release"
  echo "ok: '$row' refused ($(head -c 120 "$WORK/bad.log"))"
done

echo "PASS: frt_anonymize refuses non-finite coordinates"
