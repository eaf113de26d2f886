"""Tiny-size smoke run of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at smoke sizes (`run.py --tiny`),
once untraced and once traced, and checks that each result line has
exactly the contract's keys, a correct answer, and exactly the declared
metrics with their units.  Exits 0 when all runs pass.  It is kept out of
the pytest suite so the tier-1 run stays fast.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload, trace, declared):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("answers not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: {got!r}, expected a number in {unit}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            problems = check_run(workload["name"], trace, declared)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload['name']} trace={trace}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
