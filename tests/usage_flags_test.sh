#!/usr/bin/env bash
# Every flag a CLI's usage text advertises must be one that CLI's parser
# accepts. For each tool, the flags are read from the usage text it prints
# on a usage error; each is then passed alone with a value (when its usage
# line names one) next to arguments that make the command line invalid
# after parsing (a missing or doubled input), so the tool exits 2 without
# opening a file or a socket. A parser that rejects the flag says
# "unknown flag: --X" or "... does not take --X".
#
# Usage: usage_flags_test.sh FRT_ANONYMIZE FRT_STREAM FRT_SERVE FRT_EDGE

set -u

ANON="${1:?usage: usage_flags_test.sh FRT_ANONYMIZE FRT_STREAM FRT_SERVE FRT_EDGE}"
STREAM="${2:?usage: usage_flags_test.sh FRT_ANONYMIZE FRT_STREAM FRT_SERVE FRT_EDGE}"
SERVE="${3:?usage: usage_flags_test.sh FRT_ANONYMIZE FRT_STREAM FRT_SERVE FRT_EDGE}"
EDGE="${4:?usage: usage_flags_test.sh FRT_ANONYMIZE FRT_STREAM FRT_SERVE FRT_EDGE}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/frt_usage_XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# A value for a flag, chosen by the metavariable its usage line shows.
value_for() {
  case "$1" in
    N|K|X) echo 1 ;;
    O) echo global ;;
    EP) echo "unix:$WORK/never.sock" ;;
    *) echo "$WORK/never" ;;
  esac
}

# check NAME BINARY POISON...: POISON makes every command line invalid
# after parsing.
check() {
  local name="$1" bin="$2"
  shift 2
  "$bin" --no-such-flag < /dev/null > /dev/null 2> "$WORK/usage.txt"
  # "--flag META" pairs, in order of first appearance. A metavariable is
  # an upper-case word, "FILE|-", "[NAME=]FILE" or "-"; anything else
  # after the flag is description text.
  local pairs
  pairs="$(grep -o -- '--[a-z][a-z0-9-]*\( [A-Z[-][^ ]*\)\?' "$WORK/usage.txt" \
           | grep -v -- '^--no-such-flag' | awk '!seen[$1]++')"
  [[ -n "$pairs" ]] || { fail "$name: no flags in its usage text"; return; }
  local count=0 before=$failures flag meta
  while read -r flag meta; do
    count=$((count + 1))
    local args=("$flag")
    [[ -n "$meta" ]] && args+=("$(value_for "$meta")")
    "$bin" "${args[@]}" "$@" < /dev/null > /dev/null 2> "$WORK/err.txt"
    local code=$?
    if grep -q -e "unknown flag: $flag\$" -e "does not take $flag\b" \
        "$WORK/err.txt"; then
      fail "$name advertises $flag but rejects it: $(head -1 "$WORK/err.txt")"
    elif [[ $code -ne 2 ]]; then
      fail "$name ${args[*]} $*: exit $code, want 2 (usage error)"
    fi
  done <<< "$pairs"
  [[ $failures -eq $before ]] &&
    echo "ok: $name accepts all $count flags of its usage text"
}

# The anonymizer and the stream need --input and --output: each flag alone
# leaves one of them missing.
check frt_anonymize "$ANON"
check frt_stream "$STREAM"
# The service tools take exactly one input source: two are always invalid.
check frt_serve "$SERVE" --feeds "$WORK/a.csv" --input "b=$WORK/b.csv"
check frt_edge "$EDGE" --feeds "$WORK/a.csv" --input "b=$WORK/b.csv"

# A transport flag a CLI does not take is a usage error (exit 2) even on an
# otherwise valid command line, not a flag parsed and then ignored: the
# edge never listens, so it takes neither --listen nor --listen-conns.
printf 'a,1,10.0,20.0,100\na,1,11.0,21.0,160\n' > "$WORK/feeds.csv"
for flag in --listen --listen-conns; do
  case "$flag" in
    --listen) value="unix:$WORK/never.sock" ;;
    *) value=1 ;;
  esac
  "$EDGE" --feeds "$WORK/feeds.csv" --connect "unix:$WORK/never.sock" \
    "$flag" "$value" < /dev/null > /dev/null 2> "$WORK/err.txt"
  code=$?
  if [[ $code -ne 2 ]]; then
    fail "frt_edge $flag $value: exit $code, want 2 (usage error)"
  elif ! grep -q -- "does not take.*$flag\b" "$WORK/err.txt"; then
    fail "frt_edge $flag: error does not name it: $(head -1 "$WORK/err.txt")"
  fi
done

if [[ $failures -ne 0 ]]; then
  echo "FAILED: $failures flag(s)" >&2
  exit 1
fi
echo "PASS: every advertised flag is accepted"
