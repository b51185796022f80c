"""Fast self-test of the benchmark harness.

Runs every workload path on ``configs/quick-run.ini`` (the report cold and
warm) plus one thinned density pass, each untraced and traced, and checks
each result line against BENCHMARK.json: every metric printed with its
unit, no failed operation, and ``kernels.eigh_calls`` exactly 6 cold and 0
warm.  Last, it checks that the benchmark refuses to run in a directory that
holds only BENCHMARK.json and perfbench/.

    python3 perfbench/selftest.py      # from the root of a checkout
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

EIGH_CALLS = {"report-cold": 6, "report-warm": 0}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, workload: str, trace: int, units: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    problems = []
    if "failed_ratio" not in proc.stdout:
        problems.append("failed_ratio not printed")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct {result['correct']}, {result['failed']} of "
                        f"{result['attempted']} failed: {proc.stderr[-500:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(units) - set(got))}, "
                        f"extra {sorted(set(got) - set(units))}, "
                        f"units {sorted(n for n in got if n in units and got[n] != units[n])}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name} = {m['value']!r}")
    if trace and workload in EIGH_CALLS:
        eigh = result["metrics"]["kernels.eigh_calls"]["value"]
        if eigh != EIGH_CALLS[workload]:
            problems.append(f"kernels.eigh_calls {eigh}, expected {EIGH_CALLS[workload]}")
    return problems


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(bench(root, workload, trace), workload, trace, units[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '}  {workload} --trace {trace}")
            for p in problems:
                print(f"        {p}")

    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as bare:
        bare = Path(bare)
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'}  refuses to run outside a checkout")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
