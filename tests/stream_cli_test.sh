#!/usr/bin/env bash
# frt_stream is a one-feed service: its release must be byte-identical to
# `frt_serve --input stream=RAW --output-dir D` (D/stream.csv), with the
# same exit code, across the flag matrix below. And a malformed input line
# publishes only the complete windows closed before it, in either CLI:
# the partial window read ahead of the bad line is dropped and the run
# exits 1. A feed id outside [A-Za-z0-9._-] (e.g. ../escaped) is rejected
# before it can name a file outside --output-dir. CRLF blank lines and
# indented comments in --feeds are skipped. An unreadable input (a
# directory) exits 1, an out-of-range --threads exits 2, and so do
# --listen-conns without --listen, the retired --strategy and
# --pool-threads flags, a second --input feed on stdin (frt_serve and
# frt_edge) and, in frt_stream, the transport flags (--listen,
# --listen-conns, --connect). A timer knob past the clock's range
# (--close-after-ms, --evict-idle-ms, --checkpoint-interval-ms at
# INT64_MAX) means "never": the release equals the knob's off state.
#
# Usage: stream_cli_test.sh /path/to/frt_stream /path/to/frt_serve \
#            /path/to/frt_edge

set -u

USAGE="usage: stream_cli_test.sh FRT_STREAM FRT_SERVE FRT_EDGE"
STREAM="${1:?$USAGE}"
SERVE="${2:?$USAGE}"
EDGE="${3:?$USAGE}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/frt_stream_cli_XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# 400 arrivals whose ids recycle every 100: unique within any window of
# 100, so every object reappears in 4 windows (per-object budgets bite).
awk 'BEGIN { for (i = 0; i < 400; ++i) { id = i % 100; x = 200 + (i * 137) % 1700; y = 300 + (i * 251) % 1500; t = 1000 + i; for (j = 0; j < 30; ++j) { printf "%d,%.1f,%.1f,%d\n", id, x, y, t; x += 40; y += 30; t += 60 } } }' \
  > "$WORK/raw.csv"

run_pair() {
  local name="$1"
  shift
  mkdir -p "$WORK/$name"
  "$STREAM" --input "$WORK/raw.csv" --output "$WORK/$name/stream_cli.csv" \
    --window 100 --m 3 --seed 7 "$@" 2> "$WORK/$name/stream.log"
  local stream_code=$?
  "$SERVE" --input "stream=$WORK/raw.csv" --output-dir "$WORK/$name" \
    --window 100 --m 3 --seed 7 "$@" 2> "$WORK/$name/serve.log"
  local serve_code=$?
  [[ "$stream_code" == "$serve_code" ]] \
    || fail "$name: frt_stream exited $stream_code, frt_serve $serve_code"
  [[ -s "$WORK/$name/stream.csv" ]] || fail "$name: frt_serve published nothing"
  cmp "$WORK/$name/stream_cli.csv" "$WORK/$name/stream.csv" \
    || fail "$name: frt_stream and frt_serve releases differ"
  echo "ok: $name (exit $stream_code, $(wc -l < "$WORK/$name/stream.csv") lines)"
}

run_pair shards1 --shards 1
run_pair shards4 --shards 4
run_pair stride50 --shards 4 --stride 50
run_pair per_object --shards 4 --per-object-budget 2 --evict-exhausted

# ---- A duration past the clock's range means "never": each timer knob
# at INT64_MAX publishes the bytes, window count and ledger of the knob
# left off (a large finite interval for the checkpoint cadence), not a
# window per arrival. ----
NEVER=9223372036854775807

serve_only() {
  local name="$1"
  shift
  mkdir -p "$WORK/$name"
  "$SERVE" --input "stream=$WORK/raw.csv" --output-dir "$WORK/$name" \
    --window 100 --m 3 --seed 7 "$@" 2> "$WORK/$name/serve.log" \
    || fail "$name: frt_serve exited $?"
}

# Window count and ledger, session evictions and checkpoints of one log.
release_counts() {
  grep -o -e '[0-9]* windows published.*eps ledger [0-9.]*' \
    -e '[0-9]* sessions (peak [0-9]* active, [0-9]* evicted)' \
    -e 'wrote [0-9]* checkpoint(s)' "$1"
}

# same_release BASE NAME LOG: NAME published BASE's bytes, and its LOG
# reads BASE's release counts.
same_release() {
  cmp "$WORK/$1/stream.csv" "$WORK/$2/stream.csv" \
    || fail "$2: release differs from $1's"
  local want got
  want="$(release_counts "$WORK/$1/$3")"
  got="$(release_counts "$WORK/$2/$3")"
  [[ -n "$want" && "$got" == "$want" ]] \
    || fail "$2 $3: '${got//$'\n'/; }', want '${want//$'\n'/; }' as in $1"
  echo "ok: $2 $3 == $1"
}

run_pair close_never --shards 1 --close-after-ms "$NEVER"
same_release shards1 close_never stream.log
same_release shards1 close_never serve.log
serve_only idle_never --shards 1 --evict-idle-ms "$NEVER"
same_release shards1 idle_never serve.log
for interval in 100000 "$NEVER"; do
  serve_only "ckpt_$interval" --shards 1 --checkpoint-interval-ms "$interval" \
    --state-dir "$WORK/ckpt_$interval/state"
done
same_release ckpt_100000 "ckpt_$NEVER" serve.log

# ---- A malformed line after 150 good trajectories (window 100). ----
awk 'BEGIN { for (i = 0; i < 150; ++i) { x = 200 + (i * 137) % 1700; y = 300 + (i * 251) % 1500; t = 1000 + i; for (j = 0; j < 30; ++j) { printf "%d,%.1f,%.1f,%d\n", i, x, y, t; x += 40; y += 30; t += 60 } } print "150,not_a_number,2.0,3" }' \
  > "$WORK/bad.csv"

distinct_ids() {
  awk -F, '!/^#/ {ids[$1]=1} END {print length(ids)}' "$1"
}

mkdir -p "$WORK/bad_serve"
"$SERVE" --input "a=$WORK/bad.csv" --output-dir "$WORK/bad_serve" \
  --window 100 --m 3 --seed 7 2> "$WORK/bad_serve.log"
code=$?
[[ "$code" == "1" ]] || fail "frt_serve on a bad line exited $code, want 1"
grep -q "quarantined feed 'a'" "$WORK/bad_serve.log" \
  || fail "frt_serve did not quarantine feed a"
[[ "$(distinct_ids "$WORK/bad_serve/a.csv")" == "100" ]] \
  || fail "frt_serve published $(distinct_ids "$WORK/bad_serve/a.csv") ids, want the 100 of the complete window"

"$STREAM" --input "$WORK/bad.csv" --output "$WORK/bad_stream.csv" \
  --window 100 --m 3 --seed 7 2> "$WORK/bad_stream.log"
code=$?
[[ "$code" == "1" ]] || fail "frt_stream on a bad line exited $code, want 1"
[[ "$(distinct_ids "$WORK/bad_stream.csv")" == "100" ]] \
  || fail "frt_stream published $(distinct_ids "$WORK/bad_stream.csv") ids, want 100"
cmp "$WORK/bad_stream.csv" "$WORK/bad_serve/a.csv" >/dev/null \
  && fail "feeds 'a' and 'stream' draw distinct RNG streams; releases must differ"

# The interleaved --feeds reader obeys the same rule.
awk -F, '{ print "a," $0 }' "$WORK/bad.csv" > "$WORK/bad_feeds.csv"
mkdir -p "$WORK/bad_feeds"
"$SERVE" --feeds "$WORK/bad_feeds.csv" --output-dir "$WORK/bad_feeds" \
  --window 100 --m 3 --seed 7 2> "$WORK/bad_feeds.log"
code=$?
[[ "$code" == "1" ]] || fail "frt_serve --feeds on a bad line exited $code, want 1"
cmp "$WORK/bad_feeds/a.csv" "$WORK/bad_serve/a.csv" \
  || fail "--feeds and --input releases of feed a differ"

# Blank and comment lines are recognised after stripping whitespace, as
# in --input: CRLF blank lines and indented comments change nothing.
awk '{ print "a," $0 } NR % 7 == 0 { printf "\r\n  # comment %d\r\n\t\n", NR }' \
  "$WORK/raw.csv" > "$WORK/crlf_feeds.csv"
awk '{ print "a," $0 }' "$WORK/raw.csv" > "$WORK/clean_feeds.csv"
mkdir -p "$WORK/crlf_feeds" "$WORK/clean_feeds"
for name in crlf_feeds clean_feeds; do
  "$SERVE" --feeds "$WORK/$name.csv" --output-dir "$WORK/$name" \
    --window 100 --m 3 --seed 7 2> "$WORK/$name.log"
  code=$?
  [[ "$code" == "0" ]] || fail "frt_serve --feeds $name exited $code, want 0"
done
cmp "$WORK/crlf_feeds/a.csv" "$WORK/clean_feeds/a.csv" \
  || fail "CRLF blank lines and indented comments changed the --feeds release"

# ---- Feed ids name output files: one that would leave --output-dir is
# rejected where it enters, and nothing is written outside the dir. ----
mkdir -p "$WORK/escape/out"
{ head -300 "$WORK/raw.csv" | awk '{ print "good," $0 }'
  head -300 "$WORK/raw.csv" | awk '{ print "../escaped," $0 }'; } \
  > "$WORK/escape/feeds.csv"
"$SERVE" --feeds "$WORK/escape/feeds.csv" --output-dir "$WORK/escape/out" \
  --window 100 --m 3 --seed 7 2> "$WORK/escape/serve.log"
code=$?
[[ "$code" == "1" ]] || fail "frt_serve on feed id ../escaped exited $code, want 1"
grep -q "line 301: invalid feed id" "$WORK/escape/serve.log" \
  || fail "frt_serve did not name the line with the invalid feed id"
[[ ! -e "$WORK/escape/escaped.csv" ]] \
  || fail "feed id ../escaped wrote outside --output-dir"
"$SERVE" --input "../escaped=$WORK/raw.csv" --output-dir "$WORK/escape/out" \
  --window 100 --m 3 --seed 7 2> "$WORK/escape/input.log"
code=$?
[[ "$code" == "2" ]] || fail "frt_serve --input ../escaped=FILE exited $code, want 2"
[[ ! -e "$WORK/escape/escaped.csv" ]] \
  || fail "--input ../escaped=FILE wrote outside --output-dir"

# ---- A read error is not the end of the input: a directory as input
# fails the run instead of publishing nothing and exiting 0. ----
mkdir -p "$WORK/dir_input" "$WORK/dir_out"
"$STREAM" --input "$WORK/dir_input" --output "$WORK/dir_out/stream.csv" \
  --window 100 --m 3 --seed 7 2> "$WORK/dir_stream.log"
code=$?
[[ "$code" == "1" ]] || fail "frt_stream --input DIR exited $code, want 1"
grep -q "read failed" "$WORK/dir_stream.log" \
  || fail "frt_stream --input DIR did not report the read error"
"$SERVE" --input "x=$WORK/dir_input" --output-dir "$WORK/dir_out" \
  --window 100 --m 3 --seed 7 2> "$WORK/dir_serve.log"
code=$?
[[ "$code" == "1" ]] || fail "frt_serve --input x=DIR exited $code, want 1"
"$SERVE" --feeds "$WORK/dir_input" --output-dir "$WORK/dir_out" \
  --window 100 --m 3 --seed 7 2> "$WORK/dir_feeds.log"
code=$?
[[ "$code" == "1" ]] || fail "frt_serve --feeds DIR exited $code, want 1"
grep -q "read failed" "$WORK/dir_feeds.log" \
  || fail "frt_serve --feeds DIR did not report the read error"

# ---- --threads beyond unsigned range is a usage error at parse time,
# not a count wrapped modulo 2^32 (4294967298 would be 2 workers). The
# input does not exist, so a missed check fails with 1, not 2, and runs
# no window. ----
"$SERVE" --input "x=$WORK/no_such.csv" --output-dir "$WORK/dir_out" \
  --threads 4294967298 2> "$WORK/threads.log"
code=$?
[[ "$code" == "2" ]] || fail "frt_serve --threads 4294967298 exited $code, want 2"
grep -q -- "--threads value out of range" "$WORK/threads.log" \
  || fail "frt_serve did not name --threads as out of range"

# ---- --listen-conns only means something with --listen: alone it is a
# usage error (exit 2) before any input is read. ----
"$SERVE" --feeds "$WORK/clean_feeds.csv" --output "$WORK/conns.csv" \
  --window 100 --m 3 --seed 7 --listen-conns 2 2> "$WORK/conns.log"
code=$?
[[ "$code" == "2" ]] || fail "frt_serve --listen-conns without --listen exited $code, want 2"
grep -q -- "--listen-conns requires --listen" "$WORK/conns.log" \
  || fail "frt_serve did not say --listen-conns requires --listen"
[[ ! -e "$WORK/conns.csv" ]] || fail "frt_serve --listen-conns without --listen wrote output"

# ---- One stdin, one reader: two --input feeds on - would tear each
# other's lines, so the second is a usage error (exit 2) before anything
# is read, in both CLIs that take --input feeds. ----
for tool in "$SERVE" "$EDGE"; do
  case "$tool" in
    "$SERVE") sink=(--output-dir "$WORK/dir_out") ;;
    *) sink=(--connect "unix:$WORK/never.sock") ;;
  esac
  "$tool" --input a=- --input b=- "${sink[@]}" --window 100 --m 3 --seed 7 \
    < "$WORK/raw.csv" 2> "$WORK/two_stdin.log"
  code=$?
  [[ "$code" == "2" ]] \
    || fail "$(basename "$tool") with two --input feeds on - exited $code, want 2"
  grep -q -- "only one feed can read stdin" "$WORK/two_stdin.log" \
    || fail "$(basename "$tool") did not say only one feed can read stdin"
done

# ---- Retired flags are unknown flags (exit 2), not silently ignored. ----
for flag in --strategy --pool-threads; do
  "$SERVE" --input "x=$WORK/no_such.csv" --output-dir "$WORK/dir_out" \
    "$flag" 3 2> "$WORK/retired.log"
  code=$?
  [[ "$code" == "2" ]] || fail "frt_serve $flag exited $code, want 2"
  grep -q -- "unknown flag: $flag" "$WORK/retired.log" \
    || fail "frt_serve did not report $flag as unknown"
  "$STREAM" --input "$WORK/no_such.csv" --output "$WORK/retired.csv" \
    "$flag" 3 2> "$WORK/retired.log"
  code=$?
  [[ "$code" == "2" ]] || fail "frt_stream $flag exited $code, want 2"
  grep -q -- "unknown flag: $flag" "$WORK/retired.log" \
    || fail "frt_stream did not report $flag as unknown"
done

# ---- Transport flags belong to frt_serve/frt_edge: frt_stream rejects
# them (exit 2) on an otherwise valid command line instead of parsing and
# ignoring them. ----
for flag in --listen --listen-conns --connect; do
  case "$flag" in
    --listen-conns) value=1 ;;
    *) value="unix:$WORK/never.sock" ;;
  esac
  "$STREAM" --input "$WORK/raw.csv" --output "$WORK/transport.csv" \
    --window 100 --m 3 --seed 7 "$flag" "$value" 2> "$WORK/transport.log"
  code=$?
  [[ "$code" == "2" ]] || fail "frt_stream $flag $value exited $code, want 2"
  grep -q -- "frt_stream reads --input" "$WORK/transport.log" \
    || fail "frt_stream did not reject $flag as a transport flag"
done

# ---- Reproducibility: each per-feed --output-dir file is the same bytes
# in two runs at one --seed. The merged --output writes windows in the
# order they complete, which depends on timing, so two runs are compared
# as sorted rows, and they hold exactly the per-feed files' rows. ----
awk '{ printf "f%d,%s\n", int((NR - 1) / 30) % 4, $0 }' "$WORK/raw.csv" \
  > "$WORK/repro_feeds.csv"
for run in 1 2; do
  mkdir -p "$WORK/repro_dir$run"
  "$SERVE" --feeds "$WORK/repro_feeds.csv" --output-dir "$WORK/repro_dir$run" \
    --window 20 --m 3 --shards 2 --seed 11 2> "$WORK/repro_dir$run.log" \
    || fail "frt_serve --output-dir run $run exited $?"
  "$SERVE" --feeds "$WORK/repro_feeds.csv" --output "$WORK/repro_merged$run.csv" \
    --window 20 --m 3 --shards 2 --seed 11 2> "$WORK/repro_merged$run.log" \
    || fail "frt_serve --output run $run exited $?"
done
for feed in f0 f1 f2 f3; do
  [[ -s "$WORK/repro_dir1/$feed.csv" ]] || fail "frt_serve published nothing for $feed"
  cmp "$WORK/repro_dir1/$feed.csv" "$WORK/repro_dir2/$feed.csv" \
    || fail "--output-dir $feed.csv differs between two runs at one --seed"
  grep -v '^#' "$WORK/repro_dir1/$feed.csv" | sed "s/^/$feed,/"
done | LC_ALL=C sort > "$WORK/repro_dir_rows.txt"
for run in 1 2; do
  grep -v '^#' "$WORK/repro_merged$run.csv" | LC_ALL=C sort \
    > "$WORK/repro_merged_rows$run.txt"
  cmp "$WORK/repro_dir_rows.txt" "$WORK/repro_merged_rows$run.txt" \
    || fail "--output run $run does not hold the --output-dir rows"
done

echo "PASS: frt_stream == one-feed frt_serve; INT64_MAX timer knobs mean never; --output-dir files reproduce byte for byte and --output as sorted rows; bad lines publish only complete windows; CRLF blanks and indented comments skipped in --feeds; invalid feed ids, unreadable inputs, out-of-range --threads, --listen-conns without --listen, retired flags and transport flags rejected"
