#!/usr/bin/env python3
"""End-to-end benchmark of the three shipped FRT CLIs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--smoke] [--record FILE] [--compare FILE]

Run from the repository root. The first run configures and builds the
library, the CLIs and perfbench's helper binary (frt_bench) in Release into
.bench_build/perfbench; later runs rebuild incrementally.

Workloads (inputs come from synth::GenerateTaxiWorkload with --seed; the
CLIs only ever see the generated CSV):

  batch_gl_500x4   four concurrent frt_anonymize jobs, default flags (GL,
                   eps_G=eps_L=0.5, m=10, hg+, one shard, audit on), each on
                   the same 500 raw taxis, closed loop in rounds of four.
                   Chosen because the two superlinear layers (global-edit
                   kNN and the audit) carry almost all the time.
  stream_w1000_8k  frt_stream --window 1000 --shards 4 over 8000 raw taxis
                   read from a file, closed loop. 250-trajectory shards make
                   the global edit cheap, so the weight moves to ingest,
                   BatchRunner/WorkStealingPool fan-out, shard skew and the
                   pooled audit.
  serve_16f_open   frt_serve --feeds - --window 100 --close-after-ms 200
                   --state-dir DIR --metrics FILE with 16 Zipf-skewed feeds,
                   open loop: one generator process sends each trajectory
                   at its Poisson due time (SERVE_RATE per second, about 37%
                   of the closed-loop capacity of the seed commit). Windows
                   close mostly by deadline, and a write-ahead checkpoint +
                   fsync rides on every publish.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (layer driver + the CLIs' --trace-out spans); see
perfbench/README.md for the definitions. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; progress, provenance
and per-run details go to stderr and to .bench_out/results.jsonl.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_out"
BASELINE = HERE / "baseline.json"

# eps_G + eps_L of the CLIs' default pipeline flags: the bound every
# published window's printed epsilon must respect.
EPS_MAX = 1.0
# The CLIs' default --seed: the pipeline's RNG seed, not the workload seed.
PIPELINE_SEED = 42

# Open-loop rate of serve_16f_open in trajectories/s: about 37% of the
# closed-loop capacity (~1770/s) measured at the seed commit for the same
# flags and input shape; at half of it the pool already queued (see
# README.md). Fixed, so a faster service shows up as lower latency at the
# same offered load, not as a different load.
SERVE_RATE = 650.0
SERVE_FEEDS = 16
# Zipf exponent of the feed popularity: at SERVE_RATE the hottest feed takes
# about 63% of arrivals and needs ~245 ms to fill a 100-trajectory window, so
# it closes most windows by the 200 ms deadline too, only a few by count;
# every other feed closes its windows by deadline.
SERVE_ZIPF = 2.0
# A CLI run still going after this long is killed and counts as failed,
# so a hung CLI cannot hold the benchmark past its time limit.
RUN_TIMEOUT_S = 150.0
# Generator honesty: a run whose schedule released a trajectory later than
# this after its due time (p99) fell behind and is invalid.
MAX_LATENESS_P99_MS = 50.0

WORKLOADS = {
    # Four concurrent jobs, one per CPU of the 4-CPU recording host: one
    # single-threaded job's speed follows the contention on the one CPU it
    # runs on, while a round of four averages over all of them.
    "batch_gl_500x4": {"kind": "batch", "taxis": 500, "points": 60,
                       "jobs": 4},
    "stream_w1000_8k": {"kind": "stream", "taxis": 8000, "points": 60,
                        "window": 1000, "shards": 4, "jobs": 1},
    "serve_16f_open": {"kind": "serve", "points": 60, "rate": SERVE_RATE,
                       "window": 100, "close_after_ms": 200, "jobs": 1},
}
# Tiny sizes for the benchmark's own smoke test (perfbench/smoke_test.py).
SMOKE = {
    "batch_gl_500x4": {"taxis": 40, "points": 20},
    "stream_w1000_8k": {"taxis": 90, "points": 20, "window": 30},
    "serve_16f_open": {"points": 20, "rate": 60.0},
}
SETUP_REPS = {"batch": 31, "stream": 31, "serve": 31}

E2E_UNITS = {
    "throughput_pts_s": "points/s",
    "pub_latency_p50_ms": "ms",
    "pub_latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "la_s": "ratio",
    "inf": "ratio",
}

LAYER_UNITS = {
    "traj.load_s": "s",
    "traj.save_s": "s",
    "stream.ingest_s": "s",
    "core.quantize_s": "s",
    "core.signature_s": "s",
    "core.candidates": "count",
    "core.global_tf_s": "s",
    "core.global_edit_s": "s",
    "core.global_edit.knn": "count",
    "core.global_edit.evals": "count",
    "core.global_edit.evals_per_knn": "ratio",
    "core.global_edit.edits": "count",
    "core.materialize_s": "s",
    "core.local_s": "s",
    "core.local.evals_per_knn": "ratio",
    "runtime.audit_s": "s",
    "runtime.audit.build_s": "s",
    "runtime.audit.evals_per_point": "ratio",
    "runtime.batch_s": "s",
    "runtime.shard_skew": "ratio",
    "core.signature.exp": "ratio",
    "core.global_edit.exp": "ratio",
    "core.local.exp": "ratio",
    "runtime.audit.exp": "ratio",
    "service.queue_wait_p99_ms": "ms",
    "runtime.pool_idle_ms": "ms",
    "runtime.steals": "count",
    "service.assemble_ms.p50": "ms",
    "service.assemble_ms.p99": "ms",
    "service.anonymize_ms.p50": "ms",
    "service.anonymize_ms.p99": "ms",
    "service.sink_ms.p50": "ms",
    "service.sink_ms.p99": "ms",
    "service.checkpoint_write_ms.p50": "ms",
    "service.checkpoint_write_ms.p99": "ms",
    "service.fsync_ms.p50": "ms",
    "service.fsync_ms.p99": "ms",
    "service.close_wait_p99_ms": "ms",
    "service.publish_p99_ms": "ms",
    "service.windows_deadline_closed": "count",
    "trace.overhead_frac": "ratio",
}

# Spans of the CLIs' --trace-out reduced to per-instance self time.
SELF_TIME_SPANS = ("assemble", "anonymize", "sink", "checkpoint_write",
                   "fsync")


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- processes

_live = []


def spawn(cmd, **kwargs):
    proc = subprocess.Popen([str(c) for c in cmd], **kwargs)
    _live.append(proc)
    return proc


def wait_rusage(proc):
    """Reaps `proc`; returns (exit code, peak RSS in MiB, exit monotonic)."""
    _, status, usage = os.wait4(proc.pid, 0)
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _live.remove(proc)
    return proc.returncode, usage.ru_maxrss / 1024.0, ended


def reap(proc):
    code = proc.wait()
    if proc in _live:
        _live.remove(proc)
    return code


def stop_all():
    for proc in list(_live):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        _live.remove(proc)


# -------------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no FRT sources at {ROOT}: nothing to benchmark")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"], "configure")
        run_quiet(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                   "--target", "frt_bench", "frt_anonymize", "frt_stream",
                   "frt_serve"], "build")


def run_quiet(cmd, what):
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD.parent / "tmp"
    tmp.mkdir(exist_ok=True)
    proc = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                 env={**os.environ, "TMPDIR": str(tmp)})
    out, _ = proc.communicate()
    _live.remove(proc)
    if proc.returncode != 0:
        sys.stderr.write(out.decode(errors="replace")[-4000:])
        raise BenchError(f"{what} failed")


def tool(name):
    return BUILD / "frt_bench" if name == "frt_bench" else \
        BUILD / "frt" / "tools" / name


# --------------------------------------------------------------- provenance

def cmake_cache(key):
    try:
        text = (BUILD / "CMakeCache.txt").read_text()
    except OSError:
        return None
    m = re.search(rf"^{re.escape(key)}:[A-Z]+=(.*)$", text, re.M)
    return m.group(1) if m else None


def host_provenance():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER") or "c++"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout
        compiler = version.splitlines()[0] if version else compiler
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") or "unknown",
        "commit": source_commit(),
    }


def source_commit():
    """The git commit when run from a clone, else a digest of the sources
    (the benchmark checkout is not a git repository)."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "tools"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ------------------------------------------------------------------- inputs

def run_tool(args, what):
    proc = spawn([tool("frt_bench")] + args, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE)
    out, err = proc.communicate()
    _live.remove(proc)
    sys.stderr.write(err.decode(errors="replace"))
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"frt_bench {what} printed no result")
    return proc.returncode, json.loads(lines[-1])


def make_inputs(spec, seed, seconds, rundir):
    raw = rundir / "input.csv"
    args = ["gen", "--seed", seed, "--points", spec["points"], "--out", raw]
    inputs = {"raw": raw}
    if spec["kind"] == "serve":
        sched = rundir / "schedule.txt"
        args += ["--feeds", SERVE_FEEDS, "--rate", spec["rate"], "--seconds",
                 seconds, "--zipf", SERVE_ZIPF, "--schedule", sched]
        inputs["schedule"] = sched
    else:
        args += ["--taxis", spec["taxis"]]
    code, info = run_tool([str(a) for a in args], "gen")
    if code != 0:
        raise BenchError("input generation failed")
    inputs.update(info)
    inputs["sha256"] = sha256(raw)
    # One-trajectory input for the streaming set-up measurement.
    with open(raw) as src, open(rundir / "one.csv", "w") as one:
        first_key = None
        for line in src:
            if line.startswith("#"):
                continue
            key = line.rsplit(",", 3)[0]
            if first_key is None:
                first_key = key
            elif key != first_key:
                break
            one.write(line)
    inputs["one"] = rundir / "one.csv"
    return inputs


# ---------------------------------------------------------------- CLI runs

def cli_command(spec, inputs, rundir, source, trace_out=None):
    """The workload's command line; `source` is the input path (or "-")."""
    kind = spec["kind"]
    if kind == "batch":
        return [tool("frt_anonymize"), "--input", source,
                "--output", "/dev/stdout"]
    # Outputs go to /dev/stdout, not "-": frt_serve reads --feeds - through
    # std::cin, which is tied to std::cout, so with "--output -" its ingest
    # thread flushes std::cout while the dispatcher thread writes it (a data
    # race that corrupts rows). A path output is a stream of its own.
    if kind == "stream":
        cmd = [tool("frt_stream"), "--input", source, "--output",
               "/dev/stdout", "--window", spec["window"],
               "--shards", spec["shards"]]
    else:
        state = rundir / "state"
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir()
        cmd = [tool("frt_serve"), "--feeds", "-", "--output", "/dev/stdout",
               "--window", spec["window"],
               "--close-after-ms", spec["close_after_ms"],
               "--state-dir", state, "--metrics", rundir / "metrics.txt"]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out, "--trace-buffer-events", 1 << 18]
    return cmd


def measure_setup(spec, inputs, rundir, reps):
    """Set-up seconds of `reps` spawns (see README.md)."""
    os.sync()  # a CLI's fsync must not write back the benchmark's files
    samples = []
    for _ in range(reps):
        if spec["kind"] == "batch":
            # The round's jobs spawned together, to the last one's `loaded
            # ...` line: input parsed, pipeline next.
            start = time.monotonic()
            procs = [spawn(cli_command(spec, inputs, rundir, inputs["raw"]),
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                     for _ in range(spec["jobs"])]
            loaded = 0
            for proc in procs:
                for line in proc.stderr:
                    if line.startswith(b"loaded "):
                        loaded += 1
                        break
                proc.kill()
                proc.stderr.close()
            ended = time.monotonic()
            for proc in procs:
                reap(proc)
            if loaded < len(procs):
                raise BenchError("frt_anonymize never printed `loaded`")
            samples.append(ended - start)
        else:
            # The same command line on a one-trajectory input: process
            # start, pool spin-up, state-dir recovery, exit.
            source = inputs["one"] if spec["kind"] == "stream" else "-"
            with open(inputs["one"]) as stdin:
                start = time.monotonic()
                proc = spawn(cli_command(spec, inputs, rundir, source),
                             stdin=stdin, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
                code, _, ended = wait_rusage(proc)
            if code != 0:
                raise BenchError(f"set-up run exited {code}")
            samples.append(ended - start)
    return samples


def start_cli(spec, inputs, rundir, trace_out=None, slot=None):
    """Spawns one CLI with its output piped through `frt_bench feed`;
    `finish_cli` waits for both. Concurrent CLIs take distinct `slot`s."""
    files = rundir if slot is None else rundir / f"job{slot}"
    files.mkdir(exist_ok=True)
    kind = spec["kind"]
    out_r, out_w = os.pipe()
    in_r = in_w = None
    stdin = subprocess.DEVNULL
    if kind == "serve":
        in_r, in_w = os.pipe()
        stdin = in_r
    source = "-" if kind == "serve" else inputs["raw"]
    with open(files / "cli.err", "wb") as err:
        start = time.monotonic()
        cli = spawn(cli_command(spec, inputs, rundir, source, trace_out),
                    stdin=stdin, stdout=out_w, stderr=err)
    feed_args = [tool("frt_bench"), "feed", "--copy", files / "published.csv",
                 "--result", files / "feed.json"]
    if kind == "serve":
        # Due times start shortly after the spawn so process start-up
        # is not charged to the first arrivals.
        t0 = time.monotonic_ns() + 50_000_000
        feed_args += ["--start-ns", t0, "--input", inputs["raw"],
                      "--schedule", inputs["schedule"]]
        feeder = spawn(feed_args, stdin=out_r, stdout=in_w)
    else:
        t0 = int(start * 1e9)
        feed_args += ["--start-ns", t0]
        feeder = spawn(feed_args, stdin=out_r, stdout=subprocess.DEVNULL)
    for fd in (out_r, out_w, in_r, in_w):
        if fd is not None:
            os.close(fd)
    watchdog = threading.Timer(RUN_TIMEOUT_S, cli.kill)
    watchdog.start()
    return {"cli": cli, "feeder": feeder, "watchdog": watchdog,
            "start": start, "files": files}


def finish_cli(started, rundir):
    code, rss_mb, ended = wait_rusage(started["cli"])
    started["watchdog"].cancel()
    feed_code = reap(started["feeder"])
    files = started["files"]
    feed = json.loads((files / "feed.json").read_text())
    stderr_text = (files / "cli.err").read_text(errors="replace")
    # One copy per distinct release, so a later run cannot overwrite the
    # output an earlier run is checked against.
    digest = sha256(files / "published.csv")
    kept = rundir / f"published-{digest[:16]}.csv"
    os.replace(files / "published.csv", kept)
    return {
        "exit": code,
        "feed_exit": feed_code,
        "start": started["start"],
        "ended": ended,
        "wall_s": ended - started["start"],
        "rss_mb": rss_mb,
        "feed": feed,
        "stderr": stderr_text,
        "output_sha256": digest,
        "copy": kept,
    }


def run_cli(spec, inputs, rundir, trace_out=None):
    """One CLI run on its own."""
    os.sync()  # a CLI's fsync must not write back the benchmark's files
    return finish_cli(start_cli(spec, inputs, rundir, trace_out), rundir)


def run_round(spec, inputs, rundir):
    """`spec["jobs"]` CLI runs started together; their wall is the time from
    the first spawn to the last exit."""
    os.sync()
    started = [start_cli(spec, inputs, rundir, slot=k)
               for k in range(spec["jobs"])]
    jobs = [finish_cli(s, rundir) for s in started]
    return {
        "jobs": jobs,
        "wall_s": max(j["ended"] for j in jobs) - jobs[0]["start"],
        "latency_p50_ms": statistics.median(
            j["feed"]["latency_p50_ms"] for j in jobs),
        "latency_p99_ms": max(j["feed"]["latency_p99_ms"] for j in jobs),
    }


WINDOW_EPS = {
    "batch": re.compile(r"^\S+ done in [\d.]+s: eps=([\d.]+)", re.M),
    "stream": re.compile(r"^window \d+: \d+ trajs.*?, eps=([\d.]+)", re.M),
    "serve": re.compile(r"^feed \S+ window \d+: \d+ trajs, eps=([\d.]+)",
                        re.M),
}
SERVE_DONE = re.compile(
    r"serve done in .*?(\d+) windows published / (\d+) refused "
    r"\((\d+) deadline-closed\).*?close-wait p50/p99/max "
    r"([\d.]+)/([\d.]+)/([\d.]+) ms, publish p50/p99/max "
    r"([\d.]+)/([\d.]+)/([\d.]+) ms")
STREAM_DONE = re.compile(r"stream done in .*?(\d+) windows published")


def assess(spec, inputs, run, check):
    """Operations attempted/failed by one run, and why it failed."""
    kind = spec["kind"]
    eps = [float(e) for e in WINDOW_EPS[kind].findall(run["stderr"])]
    refused = 0
    if kind == "serve":
        m = SERVE_DONE.search(run["stderr"])
        refused = int(m.group(2)) if m else 0
    attempted = 1 if kind == "batch" else max(1, len(eps) + refused)
    problems = []
    if run["exit"] != 0:
        problems.append(f"exit code {run['exit']}")
    if run["feed_exit"] != 0 or not run["feed"]["ok"]:
        problems.append("output capture failed")
    if not check.get("ok"):
        problems.append(f"output check failed: {check}")
    if not eps:
        problems.append("no epsilon reported")
    bad_eps = sum(1 for e in eps if e > EPS_MAX + 1e-9)
    if bad_eps:
        problems.append(f"{bad_eps} window(s) over eps {EPS_MAX}")
    if kind == "serve" and run["feed"]["missing"]:
        problems.append(f"{run['feed']['missing']} trajectories unpublished")
    failed = attempted if problems else min(attempted, refused + bad_eps)
    return attempted, failed, problems


def check_runs(inputs, runs, kind):
    """Runs `frt_bench check` on each run's release, after the measuring
    window. A bit-identical release of the same input is checked once."""
    checks = {}
    for run in runs:
        sha = run["output_sha256"]
        if sha not in checks:
            code, check = run_tool(
                ["check", "--input", str(inputs["raw"]),
                 "--output", str(run["copy"]),
                 "--multi-feed", "1" if kind == "serve" else "0"], "check")
            check["ok"] = bool(check.get("ok")) and code == 0
            checks[sha] = check
        run["check"] = checks[sha]


# -------------------------------------------------------------- workloads

def untraced(spec, inputs, rundir, seconds):
    # Half the set-up spawns before the measured runs and half after, so
    # the median samples the host over the whole run, not one moment.
    reps = SETUP_REPS[spec["kind"]]
    setup = measure_setup(spec, inputs, rundir, reps - reps // 2)
    rounds = []
    began = time.monotonic()
    # Closed loop: repeat whole rounds for the measuring window (at least
    # one). Open loop: one run whose schedule spans the window.
    invalid = 0
    while not rounds or (spec["kind"] != "serve" and
                         time.monotonic() - began < seconds):
        rnd = run_round(spec, inputs, rundir)
        lateness = max(j["feed"]["lateness_p99_ms"] for j in rnd["jobs"])
        if spec["kind"] == "serve" and lateness > MAX_LATENESS_P99_MS:
            # The generator fell behind its schedule: the run is invalid and
            # not averaged in; one repeat, then give up.
            invalid += 1
            log(f"  run invalid: generator lateness p99 {lateness:.2f} ms")
            if invalid > 1:
                raise BenchError("generator fell behind twice")
            continue
        rounds.append(rnd)
        log(f"  round {len(rounds)}: exit "
            f"{max(j['exit'] for j in rnd['jobs'])}, wall "
            f"{rnd['wall_s']:.3f}s, latency p50/p99 "
            f"{rnd['latency_p50_ms']:.1f}/{rnd['latency_p99_ms']:.1f} ms "
            f"({rnd['jobs'][0]['feed']['samples']} samples per job), "
            f"lateness p99 {lateness:.2f} ms")

    setup += measure_setup(spec, inputs, rundir, reps // 2)
    runs = [job for rnd in rounds for job in rnd["jobs"]]
    check_runs(inputs, runs, spec["kind"])
    attempted = failed = 0
    for run in runs:
        a, f, problems = assess(spec, inputs, run, run["check"])
        attempted += a
        failed += f
        for p in problems:
            log(f"  FAILED: {p}")
    med = lambda key, of=runs: statistics.median(key(r) for r in of)
    points = spec["jobs"] * inputs["points"]
    metrics = {
        "throughput_pts_s": med(lambda r: points / r["wall_s"], rounds),
        "pub_latency_p50_ms": med(lambda r: r["latency_p50_ms"], rounds),
        "pub_latency_p99_ms": med(lambda r: r["latency_p99_ms"], rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": med(lambda r: r["rss_mb"]),
        "ok_frac": (attempted - failed) / attempted,
        "la_s": med(lambda r: r["check"].get("la_s", 1.0)),
        "inf": med(lambda r: r["check"].get("inf", 1.0)),
    }
    details = {
        "rounds": len(rounds),
        "runs": len(runs),
        "latency_samples": runs[0]["feed"]["samples"],
        "lateness_p99_ms": max(r["feed"]["lateness_p99_ms"] for r in runs),
        "lateness_max_ms": max(r["feed"]["lateness_max_ms"] for r in runs),
        "output_sha256": sorted({r["output_sha256"] for r in runs}),
        "output_deterministic": spec["kind"] != "serve",
    }
    return failed == 0, attempted, failed, metrics, details


def self_times(trace_path):
    """Per-span-name lists of self times (ms) and durations (ms), plus the
    dropped-event count, from a Chrome trace written by --trace-out."""
    trace = json.loads(Path(trace_path).read_text())
    by_tid = {}
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "X":
            by_tid.setdefault(ev["tid"], []).append(ev)
    selfs, durs = {}, {}
    for events in by_tid.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open spans: [event, covered-by-children us]
        done = []
        for ev in events:
            end = ev["ts"] + ev["dur"]
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] < end:
                done.append(stack.pop())
            if stack:
                stack[-1][1] += ev["dur"]  # nested: the parent's child time
            stack.append([ev, 0.0])
        done.extend(stack)
        for ev, covered in done:
            selfs.setdefault(ev["name"], []).append(
                max(0.0, ev["dur"] - covered) / 1e3)
            durs.setdefault(ev["name"], []).append(ev["dur"] / 1e3)
    dropped = int(trace.get("otherData", {}).get("dropped_events", 0))
    return selfs, durs, dropped


def percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def span_metrics(trace_path, metrics):
    selfs, durs, dropped = self_times(trace_path)
    if dropped:
        log(f"  note: the trace dropped {dropped} event(s)")
    for name in SELF_TIME_SPANS:
        metrics[f"service.{name}_ms.p50"] = percentile(selfs.get(name), 0.50)
        metrics[f"service.{name}_ms.p99"] = percentile(selfs.get(name), 0.99)
    metrics["service.queue_wait_p99_ms"] = percentile(durs.get("queue_wait"),
                                                      0.99)
    metrics["runtime.pool_idle_ms"] = sum(durs.get("pool_idle", []))
    metrics["runtime.steals"] = len(durs.get("steal", []))


def traced(spec, inputs, rundir, seconds):
    kind = spec["kind"]
    metrics = {name: 0.0 for name in LAYER_UNITS}
    problems = []
    details = {}
    if kind in ("batch", "stream"):
        driver_out = rundir / "driver.csv"
        args = ["layers", "--mode", kind, "--input", str(inputs["raw"]),
                "--pipeline-seed", str(PIPELINE_SEED)]
        if kind == "batch":
            args += ["--out", str(driver_out)]
        else:
            args += ["--window", str(spec["window"]),
                     "--shards", str(spec["shards"])]
        code, layers = run_tool(args, "layers")
        if code != 0:
            problems.append("layer driver failed (fidelity gate: "
                            f"{layers.get('gate_global_identical')})")
        for name, value in layers.items():
            if name in metrics:
                metrics[name] = value
        traced_e2e = layers["e2e_s"]
    # The untraced reference run of the same command line.
    plain = run_cli(spec, inputs, rundir)
    if kind == "batch":
        # Fidelity gate, part two: the driver's release is the CLI's.
        same = sha256(driver_out) == plain["output_sha256"]
        details["driver_output_identical"] = same
        if not same:
            problems.append("layer driver output differs from frt_anonymize")
    if kind in ("stream", "serve"):
        trace_path = rundir / "trace.json"
        run = run_cli(spec, inputs, rundir, trace_out=trace_path)
        if run["exit"] != 0:
            problems.append(f"traced CLI exited {run['exit']}")
        span_metrics(trace_path, metrics)
        if kind == "stream":
            traced_e2e = run["wall_s"]
        else:
            m = SERVE_DONE.search(run["stderr"])
            if m:
                metrics["service.windows_deadline_closed"] = int(m.group(3))
                metrics["service.close_wait_p99_ms"] = float(m.group(5))
                metrics["service.publish_p99_ms"] = float(m.group(8))
            else:
                problems.append("frt_serve printed no final report")
    # Tracing overhead: the traced run's end-to-end time against the
    # untraced run's (wall time closed loop, median publication latency
    # open loop, where wall time is set by the schedule).
    if kind == "serve":
        base = plain["feed"]["latency_p50_ms"]
        metrics["trace.overhead_frac"] = \
            (run["feed"]["latency_p50_ms"] - base) / base
    else:
        metrics["trace.overhead_frac"] = \
            (traced_e2e - plain["wall_s"]) / plain["wall_s"]
    check_runs(inputs, [plain], kind)
    attempted, failed, plain_problems = assess(spec, inputs, plain,
                                               plain["check"])
    problems += plain_problems
    for p in problems:
        log(f"  FAILED: {p}")
    if problems:
        failed = max(failed, 1)
        metrics = {}  # no per-layer numbers from a run that failed a gate
    details["output_sha256"] = [plain["output_sha256"]]
    return not problems, attempted, failed, metrics, details


# ------------------------------------------------------------ record/compare

def refuse_unless_comparable(prov, other, what):
    if prov["build_type"] != "Release":
        raise BenchError(f"refusing to {what}: build type "
                         f"{prov['build_type']} is not Release")
    if other and other.get("build_type") not in (None, "Release"):
        raise BenchError(f"refusing to {what}: the trail was recorded from "
                         f"a {other['build_type']} build")
    if other and prov["nproc"] < other.get("nproc", 0):
        raise BenchError(f"refusing to {what}: this host has {prov['nproc']} "
                         f"CPUs, the trail was recorded on {other['nproc']}")


def record(path, workload, seed, prov, result, inputs_sha, details):
    path = Path(path)
    trail = json.loads(path.read_text()) if path.is_file() else {}
    refuse_unless_comparable(prov, trail.get("provenance"), "record")
    trail["provenance"] = prov
    entry = trail.setdefault("workloads", {}).setdefault(
        workload, {"runs": {}})
    entry["runs"][str(seed)] = {
        "metrics": result["metrics"],
        "input_sha256": inputs_sha,
        "output_sha256": details["output_sha256"],
        "output_deterministic": details.get("output_deterministic", True),
    }
    runs = entry["runs"].values()
    entry["median"] = {
        name: statistics.median(r["metrics"][name] for r in runs)
        for name in result["metrics"]}
    path.write_text(json.dumps(trail, indent=1, sort_keys=True) + "\n")


def compare(path, workload, seed, prov, result, inputs_sha, details):
    trail = json.loads(Path(path).read_text())
    refuse_unless_comparable(prov, trail.get("provenance"), "compare")
    entry = trail.get("workloads", {}).get(workload)
    if entry is None:
        raise BenchError(f"{path} has no {workload} baseline")
    bounds = {m["name"]: m for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for name, value in result["metrics"].items():
        base = entry["median"].get(name)
        spec = bounds.get(name)
        if base is None or spec is None or base == 0:
            continue
        worse = (base - value) / base if spec["better"] == "higher" \
            else (value - base) / base
        verdict = "REGRESSION" if worse > spec["bound"] else "ok"
        log(f"  vs baseline {name}: {value:.6g} vs {base:.6g}, "
            f"{worse:+.1%} worse (bound {spec['bound']:.0%}) {verdict}")
    old = entry["runs"].get(str(seed))
    if old and old["input_sha256"] == inputs_sha and \
            old.get("output_deterministic", True):
        same = old["output_sha256"] == details["output_sha256"]
        log(f"  published output bit-identical to baseline: {same}")


# --------------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload in seconds")
    parser.add_argument("--record", metavar="FILE", nargs="?",
                        const=str(BASELINE),
                        help="add this run to a baseline trail (default "
                        "perfbench/baseline.json)")
    parser.add_argument("--compare", metavar="FILE", nargs="?",
                        const=str(BASELINE),
                        help="compare this run against a baseline trail "
                        "(default perfbench/baseline.json)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if (args.record or args.compare) and (args.trace or args.smoke):
        parser.error("--record and --compare take full-size untraced runs")

    spec = dict(WORKLOADS[args.workload])
    if args.smoke:
        spec.update(SMOKE[args.workload])
    build()
    prov = host_provenance()
    if args.record or args.compare:
        refuse_unless_comparable(prov, None, "record or compare")
    log(f"{args.workload} seed {args.seed} trace {args.trace}: {prov}")

    rundir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        inputs = make_inputs(spec, args.seed, args.seconds, rundir)
        log(f"  input: {inputs['trajectories']} trajectories, "
            f"{inputs['points']} points, sha256 {inputs['sha256']}")
        measure = traced if args.trace else untraced
        correct, attempted, failed, values, details = measure(
            spec, inputs, rundir, args.seconds)
    finally:
        stop_all()
        shutil.rmtree(rundir, ignore_errors=True)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "smoke": args.smoke,
               "provenance": prov, "input_sha256": inputs["sha256"],
               **details, **result}
    with open(WORK / "results.jsonl", "a") as trail:
        trail.write(json.dumps(summary) + "\n")
    flat = {name: values[name] for name in units if name in values}
    if args.record:
        record(args.record, args.workload, args.seed, prov,
               {"metrics": flat}, inputs["sha256"], details)
    if args.compare:
        compare(args.compare, args.workload, args.seed, prov,
                {"metrics": flat}, inputs["sha256"], details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    except BenchError as e:
        stop_all()
        log(f"run.py: {e}")
        sys.exit(1)
