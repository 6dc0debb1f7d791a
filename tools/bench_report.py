#!/usr/bin/env python3
"""Machine-readable perf trail for the google-benchmark binaries.

Runs a google-benchmark binary (or ingests an existing
--benchmark_format=json capture), validates it, and emits a compact
BENCH_*.json report, optionally annotated with speedups against a baseline
report. bench_index_micro's trail is BENCH_index.json and bench_serve's is
BENCH_serve.json, whose paired overhead ratios are also lifted to top-level
checkpoint_overhead / admin_overhead entries. CI runs this as the bench
smoke step and uploads the artifacts; PRs that change a measured path
commit the refreshed trail so the repo carries its own perf history.

Usage:
  tools/bench_report.py --bench build/bench/bench_index_micro \
      [--min-time 0.05] [--filter REGEX] \
      [--baseline BENCH_index.json] [--out BENCH_index.json]
  tools/bench_report.py --input raw_gbench.json [--baseline ...] [--out ...]
"""

import argparse
import json
import subprocess
import sys


def run_bench(bench, min_time, bench_filter):
    """Runs the benchmark binary, returning parsed google-benchmark JSON.

    Older google-benchmark releases take --benchmark_min_time as a bare
    double; newer ones want a "<t>s" suffix. Try suffixed first, fall back.
    """
    base_cmd = [bench, "--benchmark_format=json"]
    if bench_filter:
        base_cmd.append("--benchmark_filter=" + bench_filter)
    for min_time_arg in (f"--benchmark_min_time={min_time}s",
                         f"--benchmark_min_time={min_time}"):
        proc = subprocess.run(base_cmd + [min_time_arg],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return json.loads(proc.stdout)
    sys.stderr.write(proc.stderr)
    raise SystemExit(f"benchmark run failed: {' '.join(base_cmd)}")


# google-benchmark bookkeeping keys that are not user counters; everything
# numeric outside this set (dist_evals*, items_per_second, the serve
# study's overhead ratios, ...) is carried into the report verbatim.
_GBENCH_BOOKKEEPING = {
    "family_index", "per_family_instance_index", "repetitions",
    "repetition_index", "threads", "iterations", "real_time", "cpu_time",
}


def compact(raw):
    """Flattens google-benchmark JSON into {name: metrics}."""
    out = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            "real_time": b["real_time"],
            "cpu_time": b["cpu_time"],
            "time_unit": b["time_unit"],
            "iterations": b["iterations"],
        }
        if "label" in b:
            entry["label"] = b["label"]
        for key, value in b.items():
            if key in _GBENCH_BOOKKEEPING or not isinstance(
                    value, (int, float)) or isinstance(value, bool):
                continue
            entry[key] = value
        out[b["name"]] = entry
    if not out:
        raise SystemExit("no benchmarks in input — nothing to report")
    return out


# bench_serve's paired overhead studies: report key -> (benchmark name,
# ratio counter). Each ratio is on/off throughput, the median over a fixed
# number of ABBA pairs; the claims are checkpointing >= 0.9 and a live
# admin scraper >= 0.99.
_OVERHEADS = {
    "checkpoint_overhead": ("ServeCheckpoint", "checkpoint_throughput_ratio"),
    "admin_overhead": ("ServeAdminScrapeOverhead",
                       "admin_scrape_throughput_ratio"),
}


def derive_overheads(benchmarks):
    """Returns {report key: {"throughput_ratio", "source"}} for each paired
    overhead study present in the report."""
    out = {}
    for key, (study, counter) in _OVERHEADS.items():
        for name, entry in benchmarks.items():
            if study in name and counter in entry:
                out[key] = {"throughput_ratio": round(entry[counter], 3),
                            "source": name}
                break
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--bench", help="benchmark binary to run")
    source.add_argument("--input",
                        help="existing --benchmark_format=json capture")
    parser.add_argument("--min-time", default="0.05",
                        help="--benchmark_min_time seconds (default 0.05)")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter regex")
    parser.add_argument("--baseline",
                        help="prior report to compute speedups against "
                             "(its 'benchmarks' section, or a raw capture)")
    parser.add_argument("--out", default="BENCH_index.json",
                        help="report path (default BENCH_index.json)")
    args = parser.parse_args()

    if args.bench:
        raw = run_bench(args.bench, args.min_time, args.filter)
    else:
        with open(args.input) as f:
            raw = json.load(f)

    report = {
        "schema": "frt-bench-report/1",
        "context": {
            key: raw.get("context", {}).get(key)
            for key in ("date", "host_name", "num_cpus", "mhz_per_cpu",
                        "library_build_type")
        },
        "benchmarks": compact(raw),
    }

    report.update(derive_overheads(report["benchmarks"]))

    if args.baseline:
        with open(args.baseline) as f:
            base_raw = json.load(f)
        base = (base_raw["benchmarks"]
                if base_raw.get("schema", "").startswith("frt-bench-report")
                else compact(base_raw))
        report["baseline"] = base
        speedups = {}
        for name, entry in report["benchmarks"].items():
            if name in base and base[name]["time_unit"] == entry["time_unit"]:
                speedups[name] = round(
                    base[name]["real_time"] / entry["real_time"], 3)
        report["speedup_vs_baseline"] = speedups

    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    # Re-read as a parse check before declaring success.
    with open(args.out) as f:
        json.load(f)
    print(f"wrote {args.out} ({len(report['benchmarks'])} benchmarks)")


if __name__ == "__main__":
    main()
