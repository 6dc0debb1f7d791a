#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload, untraced and traced,
on tiny inputs (run.py --smoke), in well under a minute after the build.

    python3 perfbench/smoke_test.py

Checks that each run exits 0, that its last stdout line is a correct result
whose metrics are exactly BENCHMARK.json's (end-to-end for --trace 0,
per-layer for --trace 1) with the same units, and that attempted >= 1 and
failed == 0. Exits 1 on the first violation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-3000:])
                print(f"FAIL {label}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append("not correct")
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            if units != expected[trace]:
                problems.append(f"metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
            if problems:
                print(f"FAIL {label}: {'; '.join(problems)}")
                return 1
            print(f"ok   {label}: {result['attempted']} attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
