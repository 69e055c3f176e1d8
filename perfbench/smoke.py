"""Smoke test of the benchmark itself: every workload at a tiny size.

Runs ``perfbench/run.py --size tiny`` for each workload, untraced and
traced, and checks that the last output line is the result object, that
the run's output checks passed, and that it carries exactly the metrics
``BENCHMARK.json`` declares (end-to-end untraced, per-layer traced),
each with its declared unit and a finite value.  From the repository
root::

    python3 perfbench/smoke.py          # under a minute
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: output check failed: {lines[-2] if len(lines) > 1 else ''}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics differ: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} unit {entry.get('unit')!r} != {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            found = check(workload, trace, declared)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
