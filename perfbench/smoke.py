"""Smoke test of the benchmark harness; sets no gate on any time.

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and checks that
the last line of output is the result object with every metric that
BENCHMARK.json names, in its unit, as a finite number, and that no op
failed.  Then checks that the harness refuses to run, without printing
a result, in a directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when all of that holds.  Takes a few minutes: each traced run
includes the fixed-size census.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def problems(proc: subprocess.CompletedProcess, trace: int) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON: {exc}"]
    found = []
    if set(result) != RESULT_KEYS:
        found.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        found.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                     f"attempted={result.get('attempted')}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        found.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            found.append(f"{m['name']}: {got}")
    return found


def bare_directory_refuses() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without sources: exit {proc.returncode}"]
    return []


def main() -> int:
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = problems(run(ROOT, workload, trace), trace)
            failures += bool(found)
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}")
            for problem in found:
                print(f"     {problem}")
    found = bare_directory_refuses()
    failures += bool(found)
    print(f"{'FAIL' if found else 'ok  '} refuses to run without src/xcflow")
    for problem in found:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
