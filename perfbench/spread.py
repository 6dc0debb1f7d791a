#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--record]

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per end-to-end metric, the median and the spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound. --record adds every run to perfbench/baseline.json.
Exits 1 when a run fails or any metric's spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    status = 0
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        if args.record:
            cmd.append("--record")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-2000:])
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        row = []
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
            row.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: correct={result['correct']} " + " ".join(row),
              flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        if len(vals) < 2:
            continue
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q[2] - q[0]) / med if med else float("inf")
        over = spread > metric["bound"]
        status |= int(over)
        print(f"{metric['name']:<20} median {med:12.6g}  spread "
              f"{spread:6.3f}  bound {metric['bound']:.3f}"
              f"{'  OVER' if over else ''}")
    return status


if __name__ == "__main__":
    sys.exit(main())
