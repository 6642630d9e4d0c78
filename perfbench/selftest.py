"""Smoke-scale self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` at toy size, untraced and
traced, and asserts that each run passes its checks and prints every
metric ``BENCHMARK.json`` names, with its unit.  Then checks that the
benchmark, copied without the sources it measures, exits non-zero
without printing a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: failed checks\n{done.stderr}")
            printed = {
                name: metric["unit"]
                for name, metric in result["metrics"].items()
            }
            if printed != wanted[trace]:
                missing = set(wanted[trace]) ^ set(printed)
                wrong = {
                    n for n in set(printed) & set(wanted[trace])
                    if printed[n] != wanted[trace][n]
                }
                problems.append(
                    f"{where}: metrics differ from BENCHMARK.json: "
                    f"{sorted(missing)} {sorted(wrong)}"
                )
            print(f"ok   {where}: {result['attempted']} operations checked")
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append("without sources: exit 0 or printed a result")
    else:
        print(f"ok   without sources: exit {done.returncode}, no result")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
