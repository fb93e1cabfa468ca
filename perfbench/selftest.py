"""Smoke self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py              # or: python3 -m pytest perfbench/selftest.py

For every workload, untraced and traced, it checks that the run exits 0,
prints every metric by name with its unit, reports fail_ratio == 0, and ends
with a JSON result that holds exactly the metrics BENCHMARK.json declares.
The file name keeps it out of the repository's default pytest collection.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
EXTRA_E2E = (("count_s", "s"), ("weighted_s", "s"), ("vectors_per_s", "1/s"), ("fail_ratio", "ratio"))


def run_tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines: list[str], name: str, unit: str) -> str:
    """The printed value of a metric; fails unless the name and unit are shown."""
    pattern = re.compile(rf"^\s+{re.escape(name)}\s+(\S+)\s+{re.escape(unit)}(\s|$)")
    found = [m.group(1) for m in map(pattern.match, lines) if m]
    assert found, f"{name} [{unit}] not printed"
    return found[0]


def check(workload: str, trace: int):
    lines, result = run_tiny(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    wanted = [(m["name"], m["unit"]) for m in declared]
    wanted += list(EXTRA_E2E) if not trace else [("fail_ratio", "ratio")]
    for name, unit in wanted:
        printed(lines, name, unit)
    assert float(printed(lines, "fail_ratio", "ratio")) == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(
        (m["name"], m["unit"]) for m in declared)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_untraced():
    for w in SPEC["workloads"]:
        check(w["name"], 0)


def test_traced():
    for w in SPEC["workloads"]:
        check(w["name"], 1)


if __name__ == "__main__":
    test_untraced()
    test_traced()
    print("selftest passed")
