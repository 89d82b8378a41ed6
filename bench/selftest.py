"""Smoke self-test of the benchmark harness.

Runs every workload at toy size, untraced and traced, and checks that the
last stdout line has exactly the keys the contract names and carries every
metric listed in BENCHMARK.json with its unit.  Then checks that a directory
holding only BENCHMARK.json and bench/ makes the benchmark fail without
printing a result.  Takes about half a minute:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["bench/run.py", "--seed", "3", "--seconds", "1", "--tiny"]


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run([sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(out)}")
    if out["correct"] is not True or out["failed"] != 0 or out["attempted"] < 1:
        problems.append(f"{where}: correct={out['correct']} attempted={out['attempted']} failed={out['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(out["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = out["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {got.get('unit')!r}, not {m['unit']!r}")
        value = got.get("value")
        # a per-layer hook whose target is gone reports null (absent)
        if not (isinstance(value, (int, float)) or (trace and value is None)):
            problems.append(f"{where}: {m['name']} has value {value!r}")
        if not trace and not value:
            problems.append(f"{where}: end-to-end metric {m['name']} is {value!r}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *RUN, "--workload", "bounds", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems += check_run(workload, trace, spec)
    problems += check_bare_directory()
    for p in problems:
        print(p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
