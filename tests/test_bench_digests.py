"""The benchmark's full-size construct and verify-all passes, run in-process:
every check they make must hold.  That covers the JSON and LaTeX SHA-256
digests recorded in perfbench/expected.json, the JSON round trip, d == 0 on
the closed forms, km_nabla == km_explicit, K-invariance, the seeded
d(d(c)) == curvature, and every suite's verdict and the SHA-256 of its lines
(the calibration lines included).  The traced passes run as the benchmark
runs them, in a worker subprocess, so the tracer's wiring check
(a call recorded at every layer boundary each workload is predicted to cross,
``operators.apply`` among them) is part of the test suite.

perfbench/workloads.py is compiled from its source and run without writing
anything under perfbench/; the worker runs under ``python -B`` for the same
reason."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from theta_forms import models

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def load_workloads() -> types.ModuleType:
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    return module


class StubClock:
    """The lap/counts interface of perfbench's reference clock, timing nothing."""

    def __init__(self):
        self.laps: list[str] = []
        self.counts: dict[str, int] = {}

    def lap(self, name: str):
        self.laps.append(name)


@pytest.mark.parametrize("seed", [0, 7])
def test_full_construct_pass_has_no_failed_check(seed):
    workloads = load_workloads()
    checks, clock = workloads.Checks(), StubClock()
    workloads.construct(seed, "full", checks, clock)
    assert checks.failures == []
    ladder = workloads.LADDER["full"]
    # json, latex and round trip per item, plus d == 0, nabla == explicit, K-invariance
    assert checks.attempted >= 3 * len(ladder) + len(workloads.seeded_cochains(seed, "full"))
    assert len(clock.laps) == len(ladder) + len(workloads.seeded_cochains(seed, "full"))


def test_full_verify_all_pass_has_no_failed_check(fresh_operators):
    workloads = load_workloads()
    # cold: the operator, scalar and column ladder, and certificate caches
    # start empty; warm: the second pass reads every one of them back
    models._column_ladder.cache_clear()
    models._scalar_ladder.cache_clear()
    for phase in ("cold", "warm"):
        checks, clock = workloads.Checks(), StubClock()
        workloads.verify_all(0, "full", checks, clock)
        assert checks.failures == [], phase
        # verdict and lines digest per suite
        assert checks.attempted == 2 * len(workloads.suites.SUITES)
        assert len(clock.laps) == len(workloads.suites.SUITES)


@pytest.mark.parametrize("workload", ["verify-all", "construct", "theta-e8"])
def test_traced_worker_has_no_failed_check(workload):
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "0", "--size", "tiny", "--trace"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
