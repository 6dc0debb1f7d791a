#!/usr/bin/env bash
# Loopback smoke of the distributed ingress tier (ISSUE 8) and the
# admin introspection plane (ISSUE 10).
#
# One frt_serve aggregator listens on a Unix socket and three frt_edge
# processes stream framed trajectories into it. Edge A is clean; edge B
# injects one corrupt payload byte (after the CRC was computed) into its
# second trajectory frame; edge C is clean again so the aggregator stays
# alive for admin scrapes after the quarantine. The aggregator must:
#
#   - quarantine edge B's feed (per-feed quarantine report + exit 3),
#   - publish edge A's and C's feeds completely and untouched,
#   - record "frame_read" / "frame_decode" ingress spans in the trace,
#   - serve /metrics, /healthz, and /feedz mid-run on --admin-listen,
#     with eps_remaining non-increasing across scrapes and the
#     quarantined feed visible in /feedz.
#
# The last runs check that SIGINT stops an aggregator started without
# --listen-conns cleanly once an edge's stream has ended (exit 0, socket
# file removed, output equal to a --listen-conns 1 run of the same edge
# stream), that a client which connects and stays silent does not hold the
# aggregator open past a SIGINT (exit 0 within 2 s, socket file removed,
# no frame error logged),
# and that a SIGINT in the middle of an edge's stream quarantines that
# edge's feed instead of publishing its truncated tail (exit 3).
#
# Usage: loopback_smoke_test.sh /path/to/frt_serve /path/to/frt_edge

set -u

SERVE="${1:?usage: loopback_smoke_test.sh /path/to/frt_serve /path/to/frt_edge}"
EDGE="${2:?usage: loopback_smoke_test.sh /path/to/frt_serve /path/to/frt_edge}"
PYTHON="${PYTHON:-python3}"
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
TRACE_SUMMARY="$HERE/../tools/trace_summary.py"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/frt_loopback_XXXXXX")"
SERVE_PID=""
EDGE_PID=""

cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null
  [[ -n "$EDGE_PID" ]] && kill -9 "$EDGE_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "---- serve.log ----" >&2
  cat "$WORK/serve.log" >&2 2>/dev/null
  echo "---- edge_a.log ----" >&2
  cat "$WORK/edge_a.log" >&2 2>/dev/null
  echo "---- edge_b.log ----" >&2
  cat "$WORK/edge_b.log" >&2 2>/dev/null
  echo "---- edge_c.log ----" >&2
  cat "$WORK/edge_c.log" >&2 2>/dev/null
  exit 1
}

# Two single-feed CSVs: 8 trajectories of 6 points each, windows of 2.
make_feed() {
  awk -v feed="$1" 'BEGIN {
    for (i = 0; i < 8; i++) {
      x = 100 + (i * 113) % 900; y = 200 + (i * 211) % 700; t = 100 + i
      for (j = 0; j < 6; j++) {
        printf "%s,%d,%f,%f,%d\n", feed, i, x, y, t
        x += 17 + j; y += 13 + j; t += 30
      }
    }
  }'
}
make_feed alpha > "$WORK/a.csv"
make_feed beta  > "$WORK/b.csv"
make_feed gamma > "$WORK/c.csv"

SOCK="$WORK/agg.sock"
ADMIN_SOCK="$WORK/admin.sock"
FLAGS=(--window 2 --epsilon-global 0.5 --epsilon-local 0.5 --shards 2
       --seed 17 --budget 100)

# One HTTP/1.0 GET over the admin Unix socket; prints the response body.
admin_get() {
  "$PYTHON" - "$ADMIN_SOCK" "$1" <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.settimeout(5)
s.connect(sys.argv[1])
s.sendall(("GET %s HTTP/1.0\r\n\r\n" % sys.argv[2]).encode())
data = b""
while True:
    chunk = s.recv(4096)
    if not chunk:
        break
    data += chunk
parts = data.split(b"\r\n\r\n", 1)
sys.stdout.write(parts[1].decode() if len(parts) > 1 else "")
PY
}

# ---- Aggregator: 3 edge connections, trace + admin plane armed, fast
# introspection ticks so scrapes see fresh per-feed state. ----
"$SERVE" --listen "unix:$SOCK" --listen-conns 3 --output "$WORK/merged.csv" \
         --trace-out "$WORK/trace.json" \
         --admin-listen "unix:$ADMIN_SOCK" \
         --metrics "$WORK/metrics.log" --metrics-interval-ms 50 \
         --metrics-per-feed "${FLAGS[@]}" \
         2> "$WORK/serve.log" &
SERVE_PID=$!

for _ in $(seq 50); do
  [[ -S "$SOCK" && -S "$ADMIN_SOCK" ]] && break
  sleep 0.1
done
[[ -S "$SOCK" ]] || fail "aggregator never bound $SOCK"
[[ -S "$ADMIN_SOCK" ]] || fail "aggregator never bound $ADMIN_SOCK"

# ---- Edge A: clean run, must exit 0. ----
"$EDGE" --feeds "$WORK/a.csv" --connect "unix:$SOCK" --hello edge-a \
        "${FLAGS[@]}" 2> "$WORK/edge_a.log"
EDGE_A_EXIT=$?
[[ "$EDGE_A_EXIT" -eq 0 ]] || fail "clean edge exited $EDGE_A_EXIT, want 0"

# ---- Admin scrape #1 (mid-run, after alpha published). ----
for _ in $(seq 50); do
  admin_get /feedz > "$WORK/feedz1.json" 2>/dev/null
  grep -q '"feed":"alpha"' "$WORK/feedz1.json" && break
  sleep 0.1
done
grep -q '"feed":"alpha"' "$WORK/feedz1.json" \
  || fail "alpha never appeared in /feedz"
HEALTH1="$(admin_get /healthz)"
[[ "$HEALTH1" == "ok" ]] || fail "/healthz said '$HEALTH1', want ok"
admin_get /metrics > "$WORK/metrics1.prom"
grep -q "^# TYPE frt_serve_windows_published_total counter" \
    "$WORK/metrics1.prom" || fail "/metrics missing serve counters"
grep -q "^frt_ingress_frames_total " "$WORK/metrics1.prom" \
  || fail "/metrics missing ingress counters"

# ---- Edge B: corrupts its 2nd trajectory frame mid-stream. The
# aggregator tears the connection down at the CRC mismatch; depending on
# how much the kernel buffered, edge B sees the cut as a failed write
# (exit 1) or not at all (exit 0) — both are fine, the aggregator's view
# is what this test asserts. ----
"$EDGE" --feeds "$WORK/b.csv" --connect "unix:$SOCK" --hello edge-b \
        --inject-corrupt-frame 2 "${FLAGS[@]}" 2> "$WORK/edge_b.log"
EDGE_B_EXIT=$?
[[ "$EDGE_B_EXIT" -eq 0 || "$EDGE_B_EXIT" -eq 1 ]] \
  || fail "corrupt edge exited $EDGE_B_EXIT, want 0 or 1"
grep -q "injected corrupt payload byte" "$WORK/edge_b.log" \
  || fail "edge B never injected its fault"

# ---- Admin scrape #2: the quarantined feed shows up in /feedz, alpha's
# eps_remaining never increased, and the scrape counters are monotone. ----
for _ in $(seq 50); do
  admin_get /feedz > "$WORK/feedz2.json" 2>/dev/null
  "$PYTHON" -c '
import json, sys
d = json.load(open(sys.argv[1]))
sys.exit(0 if any(f["feed"] == "beta" and f["quarantined"]
                  for f in d["feed"]) else 1)' "$WORK/feedz2.json" \
    2>/dev/null && break
  sleep 0.1
done
admin_get /metrics > "$WORK/metrics2.prom"
"$PYTHON" - "$WORK/feedz1.json" "$WORK/feedz2.json" \
    "$WORK/metrics1.prom" "$WORK/metrics2.prom" <<'PY' \
  || fail "admin scrape invariants violated"
import json, sys

first = json.load(open(sys.argv[1]))
second = json.load(open(sys.argv[2]))

def feeds(d):
    return {f["feed"]: f for f in d["feed"]}

f1, f2 = feeds(first), feeds(second)
assert "beta" in f2 and f2["beta"]["quarantined"], \
    "quarantined beta missing from /feedz: %r" % f2
assert f2["beta"]["quarantine_reason"], "quarantine reason empty"
# Budget only ever drains: eps_remaining is non-increasing and
# eps_spent non-decreasing across scrapes, per feed.
for name in set(f1) & set(f2):
    assert float(f2[name]["eps_remaining"]) <= float(
        f1[name]["eps_remaining"]), name
    assert float(f2[name]["eps_spent"]) >= float(f1[name]["eps_spent"]), name
assert f2["alpha"]["windows_published"] == 4, f2["alpha"]

def counter(path, name):
    for line in open(path):
        if line.startswith(name + " "):
            return int(line.split()[1])
    raise AssertionError("%s missing from %s" % (name, path))

for name in ("frt_serve_windows_published_total",
             "frt_ingress_frames_total", "frt_admin_requests_total"):
    assert counter(sys.argv[4], name) >= counter(sys.argv[3], name), name
assert counter(sys.argv[4], "frt_serve_feeds_quarantined_total") == 1
PY

# ---- Edge C: clean again — the quarantine stayed contained. ----
"$EDGE" --feeds "$WORK/c.csv" --connect "unix:$SOCK" --hello edge-c \
        "${FLAGS[@]}" 2> "$WORK/edge_c.log"
EDGE_C_EXIT=$?
[[ "$EDGE_C_EXIT" -eq 0 ]] || fail "clean edge C exited $EDGE_C_EXIT, want 0"

wait "$SERVE_PID"
SERVE_EXIT=$?
SERVE_PID=""
[[ "$SERVE_EXIT" -eq 3 ]] \
  || fail "aggregator exited $SERVE_EXIT, want 3 (quarantine)"

# ---- Quarantine is per-feed: beta named and cut off, alpha complete. ----
grep -q "^quarantine: feed beta: .*CRC" "$WORK/serve.log" \
  || fail "missing per-feed quarantine report for beta"
grep -q "feed beta: .*\[quarantined\]" "$WORK/serve.log" \
  || fail "beta's feed report line is not tagged [quarantined]"
grep -q "1 feed(s) quarantined" "$WORK/serve.log" \
  || fail "missing quarantine summary line"
grep -q "quarantine" "$WORK/edge_a.log" \
  && fail "clean edge A mentions quarantine"
# Alpha: all 8 trajectories in 4 windows of 2 (the anonymizer rewrites
# points, so assert at the window/trajectory level, not line counts).
grep -q "feed alpha: 4 windows published (8 trajs)" "$WORK/serve.log" \
  || fail "alpha did not publish its full 4 windows"
grep -q "feed gamma: 4 windows published (8 trajs)" "$WORK/serve.log" \
  || fail "gamma did not publish its full 4 windows"
# Beta's corrupt frame was its 2nd: one trajectory arrived pre-fault,
# never enough to close a window of 2, so nothing of beta publishes.
grep -q "feed beta: 0 windows published (0 trajs)" "$WORK/serve.log" \
  || fail "quarantined beta still published windows"
ALPHA_LINES=$(grep -c "^alpha," "$WORK/merged.csv")
BETA_LINES=$(grep -c "^beta," "$WORK/merged.csv" || true)
[[ "$ALPHA_LINES" -gt 0 ]] || fail "no alpha output in merged.csv"
[[ "$BETA_LINES" -eq 0 ]] \
  || fail "beta wrote $BETA_LINES merged lines after its quarantine"

# ---- Ingress spans made it into the trace. ----
"$PYTHON" "$TRACE_SUMMARY" "$WORK/trace.json" \
    --require frame_read,frame_decode \
  || fail "trace is missing ingress spans"

# ---- SIGINT stop: without --listen-conns the aggregator accepts until
# SIGINT/SIGTERM. Once a clean edge's stream has been read in full, a
# SIGINT must end the run cleanly: exit 0, the same output as a
# --listen-conns 1 run of that edge, and no socket file left behind. ----
wait_for_socket() {
  for _ in $(seq 50); do
    [[ -S "$1" ]] && return 0
    sleep 0.1
  done
  fail "aggregator never bound $1"
}

SIG_SOCK="$WORK/sig.sock"
ADMIN_SOCK="$WORK/sig_admin.sock"
"$SERVE" --listen "unix:$SIG_SOCK" --output "$WORK/sig.csv" \
         --admin-listen "unix:$ADMIN_SOCK" "${FLAGS[@]}" \
         2> "$WORK/serve.log" &
SERVE_PID=$!
wait_for_socket "$SIG_SOCK"
wait_for_socket "$ADMIN_SOCK"
"$EDGE" --feeds "$WORK/a.csv" --connect "unix:$SIG_SOCK" --hello edge-sig \
        "${FLAGS[@]}" 2> "$WORK/edge_a.log" \
  || fail "clean edge exited $?, want 0 (SIGINT run)"
# hello + 8 trajectories + bye: with every frame read, every trajectory
# has been offered to the service.
FRAMES=""
for _ in $(seq 50); do
  FRAMES="$(admin_get /metrics 2>/dev/null \
            | awk '$1 == "frt_ingress_frames_total" { print $2 }')"
  [[ "$FRAMES" == 10 ]] && break
  sleep 0.1
done
[[ "$FRAMES" == 10 ]] || fail "aggregator read '$FRAMES' frames, want 10"
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
SERVE_EXIT=$?
SERVE_PID=""
[[ "$SERVE_EXIT" -eq 0 ]] \
  || fail "aggregator exited $SERVE_EXIT after SIGINT, want 0"
[[ ! -e "$SIG_SOCK" ]] || fail "SIGINT left the socket file $SIG_SOCK"

REF_SOCK="$WORK/ref.sock"
"$SERVE" --listen "unix:$REF_SOCK" --listen-conns 1 \
         --output "$WORK/ref.csv" "${FLAGS[@]}" 2> "$WORK/serve.log" &
SERVE_PID=$!
wait_for_socket "$REF_SOCK"
"$EDGE" --feeds "$WORK/a.csv" --connect "unix:$REF_SOCK" --hello edge-sig \
        "${FLAGS[@]}" 2> "$WORK/edge_a.log" \
  || fail "clean edge exited $?, want 0 (--listen-conns 1 run)"
wait "$SERVE_PID"
SERVE_EXIT=$?
SERVE_PID=""
[[ "$SERVE_EXIT" -eq 0 ]] \
  || fail "--listen-conns 1 aggregator exited $SERVE_EXIT, want 0"
[[ -s "$WORK/ref.csv" ]] || fail "--listen-conns 1 run wrote no output"
cmp -s "$WORK/sig.csv" "$WORK/ref.csv" \
  || fail "SIGINT-stopped output differs from the --listen-conns 1 run"

# ---- SIGINT with a silent client: it connects and never sends a byte.
# Stop() shuts the connection's read side down, so the SIGINT ends the
# run at once instead of waiting for the client to close. ----
SILENT_SOCK="$WORK/silent.sock"
ADMIN_SOCK="$WORK/silent_admin.sock"
"$SERVE" --listen "unix:$SILENT_SOCK" --output "$WORK/silent.csv" \
         --admin-listen "unix:$ADMIN_SOCK" "${FLAGS[@]}" \
         2> "$WORK/serve.log" &
SERVE_PID=$!
wait_for_socket "$SILENT_SOCK"
wait_for_socket "$ADMIN_SOCK"
"$PYTHON" - "$SILENT_SOCK" <<'PY' &
import socket, sys, time
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
time.sleep(10)
PY
EDGE_PID=$!
CONNS=""
for _ in $(seq 50); do
  CONNS="$(admin_get /metrics 2>/dev/null \
           | awk '$1 == "frt_ingress_connections_total" { print $2 }')"
  [[ "$CONNS" == 1 ]] && break
  sleep 0.1
done
[[ "$CONNS" == 1 ]] || fail "aggregator accepted '$CONNS' connections, want 1"
STOP_START_NS="$(date +%s%N)"
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
SERVE_EXIT=$?
SERVE_PID=""
STOP_MS=$(( ($(date +%s%N) - STOP_START_NS) / 1000000 ))
kill "$EDGE_PID" 2>/dev/null
wait "$EDGE_PID" 2>/dev/null
EDGE_PID=""
[[ "$SERVE_EXIT" -eq 0 ]] \
  || fail "aggregator exited $SERVE_EXIT after SIGINT with a silent client, want 0"
[[ "$STOP_MS" -le 2000 ]] \
  || fail "SIGINT with a silent client took $STOP_MS ms, want <= 2000"
[[ ! -e "$SILENT_SOCK" ]] \
  || fail "SIGINT with a silent client left the socket file $SILENT_SOCK"
# The client delivered no feed, so nothing was cut short: a clean stop,
# not a frame error.
! grep -q "fatal frame error" "$WORK/serve.log" \
  || fail "SIGINT with a silent client logged a fatal frame error"

# ---- SIGINT mid-stream: the edge is still sending when the aggregator
# stops, so its feed lacks the trajectories after the cut. Like a
# disconnect without bye, that quarantines the feed (exit 3 and a
# quarantine line) rather than publishing a truncated final window. No
# budget here, so the quarantine is the only way to exit 3. ----
awk 'BEGIN {
  for (i = 0; i < 30000; i++) {
    x = 100 + (i * 113) % 900; y = 200 + (i * 211) % 700; t = 100 + i
    for (j = 0; j < 4; j++) {
      printf "delta,%d,%f,%f,%d\n", i, x, y, t
      x += 17 + j; y += 13 + j; t += 30
    }
  }
}' > "$WORK/d.csv"
CUT_FLAGS=(--window 7 --epsilon-global 0.5 --epsilon-local 0.5 --shards 2
           --seed 17)
CUT_SOCK="$WORK/cut.sock"
ADMIN_SOCK="$WORK/cut_admin.sock"
"$SERVE" --listen "unix:$CUT_SOCK" --output "$WORK/cut.csv" \
         --admin-listen "unix:$ADMIN_SOCK" "${CUT_FLAGS[@]}" \
         2> "$WORK/serve.log" &
SERVE_PID=$!
wait_for_socket "$CUT_SOCK"
wait_for_socket "$ADMIN_SOCK"
"$EDGE" --feeds "$WORK/d.csv" --connect "unix:$CUT_SOCK" --hello edge-cut \
        "${CUT_FLAGS[@]}" 2> "$WORK/edge_a.log" &
EDGE_PID=$!
FRAMES=0
for _ in $(seq 100); do
  FRAMES="$(admin_get /metrics 2>/dev/null \
            | awk '$1 == "frt_ingress_frames_total" { print $2 }')"
  [[ "${FRAMES:-0}" -ge 100 ]] && break
  sleep 0.05
done
[[ "${FRAMES:-0}" -ge 100 ]] || fail "aggregator read '$FRAMES' frames, want >= 100"
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
SERVE_EXIT=$?
SERVE_PID=""
# The edge sees the cut as a failed write (exit 1); only the aggregator's
# view is asserted.
wait "$EDGE_PID"
EDGE_PID=""
grep -q "^ingress: .* 30000 trajectories" "$WORK/serve.log" \
  && fail "the edge finished its stream before the SIGINT"
[[ "$SERVE_EXIT" -eq 3 ]] \
  || fail "aggregator exited $SERVE_EXIT after a mid-stream SIGINT, want 3"
grep -q "^quarantine: feed delta: .*before bye" "$WORK/serve.log" \
  || fail "missing quarantine report for the feed cut mid-stream"

echo "PASS: loopback smoke (quarantine contained to beta; alpha complete;"\
     "SIGINT stops cleanly after bye and past a silent client,"\
     "quarantines mid-stream)"
