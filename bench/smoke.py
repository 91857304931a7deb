#!/usr/bin/env python3
"""Fast check of the benchmark at tiny sizes; it does not gate on wall time.

Usage, from the repository root:

    python3 bench/smoke.py

Runs every workload in BENCHMARK.json with --smoke, untraced and traced,
and checks that the last line of each run has exactly the keys correct,
attempted, failed and metrics; that it emits every end-to-end (untraced)
or per-layer (traced) metric named in BENCHMARK.json, with its unit, as a
finite number; and that the oracles pass (correct is true). Exits 1 and
names each problem otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

from common import ROOT


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "1",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: an oracle failed outside the tracked defects")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted must be an integer >= 1")
    emitted = {name: metric.get("unit") for name, metric in result.get("metrics", {}).items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        wrong = sorted(n for n in set(expected) & set(emitted) if expected[n] != emitted[n])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, metric in result.get("metrics", {}).items():
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number: {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(workload["name"], trace, expected[trace])
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
