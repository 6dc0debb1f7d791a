#!/usr/bin/env bash
# frt_anonymize refuses input with a non-finite coordinate: strtod parses
# nan, inf and infinity, and one such point would poison the grid region
# (and every displacement) of the whole batch. The run must exit 1, name
# the line, and write no release. The same input with the row fixed runs.
# A directory as input is a read error (exit 1), not an empty dataset.
# The retired --strategy and --pool-threads flags are unknown (exit 2), and
# an epsilon of inf, nan or -1 is a usage error (exit 2).
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

# A directory as input is a read error, not an empty dataset.
mkdir -p "$WORK/dir_input"
"$ANON" --input "$WORK/dir_input" --output "$WORK/dir_out.csv" --m 3 \
  2> "$WORK/dir.log"
code=$?
[[ "$code" == "1" ]] || fail "--input DIR exited $code, want 1"
grep -q "read failed" "$WORK/dir.log" \
  || fail "--input DIR did not report the read error: $(cat "$WORK/dir.log")"
[[ -e "$WORK/dir_out.csv" ]] && fail "--input DIR wrote a release"
echo "ok: --input DIR refused ($(head -c 120 "$WORK/dir.log"))"

for flag in --strategy --pool-threads; do
  "$ANON" --input "$WORK/good.csv" --output "$WORK/retired_out.csv" \
    "$flag" 3 2> "$WORK/retired.log"
  code=$?
  [[ "$code" == "2" ]] || fail "$flag exited $code, want 2"
  grep -q -- "unknown flag: $flag" "$WORK/retired.log" \
    || fail "$flag not reported as unknown: $(cat "$WORK/retired.log")"
  [[ -e "$WORK/retired_out.csv" ]] && fail "$flag wrote a release"
done
echo "ok: retired flags refused"

# Privacy parameters must be finite and non-negative: inf means no noise,
# nan compares false against every check, and a negative epsilon is
# meaningless. Each is a usage error (exit 2) naming the flag.
for flag in --epsilon-global --epsilon-local; do
  for value in inf nan -1; do
    "$ANON" --input "$WORK/good.csv" --output "$WORK/eps_out.csv" \
      "$flag" "$value" 2> "$WORK/eps.log"
    code=$?
    [[ "$code" == "2" ]] || fail "$flag $value exited $code, want 2"
    grep -q -- "$flag" "$WORK/eps.log" \
      || fail "$flag $value: error does not name the flag"
    [[ -e "$WORK/eps_out.csv" ]] && fail "$flag $value wrote a release"
  done
done
echo "ok: non-finite and negative epsilons refused"

echo "PASS: frt_anonymize refuses non-finite coordinates, unreadable input, retired flags and non-finite or negative epsilons"
