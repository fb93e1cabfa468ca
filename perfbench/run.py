"""theta-forms benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload {verify-all,construct,theta-e8} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere inside a checkout that has ``src/theta_forms``; nothing is
installed or built.  The load is a closed loop with one caller: each
iteration is a fresh single-threaded worker process (perfbench/worker.py)
that runs the workload cold and then warm, and the next iteration starts
when it has finished.  Iterations repeat until the next one would end after
``--seconds``; every reported time is the median over iterations.  Times
are normalised by an interleaved reference computation to cancel the
host's CPU-speed drift (refclock.py); the raw wall-clock times are printed
beside them.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one untraced and one traced iteration and prints the per-layer metrics,
including the tracing overhead (traced wall_s / untraced wall_s).  Human
readable lines come first; the last line is the JSON result.  ``--size
tiny`` shrinks every input, for the smoke self-test (perfbench/selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from refclock import normalise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_LIMIT_S = 170          # every run must end within 180 s
SETUP_RUNS = {"full": 11, "tiny": 3}
# The child prints the clock when the parser is built, then how fast the
# reference computation runs on its CPU right after.
SETUP_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
              "from theta_forms.cli import build_parser; build_parser(); "
              "print(time.perf_counter(), flush=True); "
              "from refclock import reference_speed; print(reference_speed())")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def machine_facts() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return f"machine nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"


def time_setup(deadline: float) -> tuple[float, float]:
    """Fresh interpreter to `import theta_forms` done and the CLI parser
    built: (raw, normalised) seconds.  perf_counter is the system-wide
    monotonic clock, so the child's reading closes the interval."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=max(5.0, deadline - t0))
    if proc.returncode:
        raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    ready, speed = map(float, proc.stdout.split())
    return ready - t0, normalise(ready - t0, (speed,))


def run_worker(args, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(5.0, deadline - perf_counter()))
    if proc.returncode:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for kind, suffix in (("norm", "_s"), ("raw", "_raw_s")):
        out["cold" + suffix] = sum(out["cold"][kind].values())
        out["warm" + suffix] = sum(out["warm"][kind].values())
        out["wall" + suffix] = out["cold" + suffix] + out["warm" + suffix]
    return out


def theta_breakdown(iters: list[dict]) -> dict:
    """count_s, weighted_s and vectors_per_s over every pass (theta has no
    cache, so cold and warm passes are samples of the same work)."""
    passes = [it[phase] for it in iters for phase in ("cold", "warm")]
    if "count_s" not in passes[0]["norm"]:
        return {}
    return {"count_s": median(p["norm"]["count_s"] for p in passes),
            "weighted_s": median(p["norm"]["weighted_s"] for p in passes),
            "vectors_per_s": median(p["counts"]["vectors"] / p["norm"]["count_s"] for p in passes)}


def measure(args, deadline: float) -> tuple[dict, list[dict], dict]:
    setups = [time_setup(deadline) for _ in range(SETUP_RUNS[args.size])]
    iters = []
    start = perf_counter()
    while True:
        iters.append(run_worker(args, False, deadline))
        elapsed = perf_counter() - start
        if elapsed * (len(iters) + 1) / len(iters) > args.seconds:
            break
    metrics = {"setup_s": median(norm for _, norm in setups),
               "peak_rss_mb": median(it["peak_rss_mb"] for it in iters)}
    raw = {"setup_s": median(r for r, _ in setups)}
    for name in ("wall", "cold", "warm"):
        metrics[name + "_s"] = median(it[name + "_s"] for it in iters)
        raw[name + "_s"] = median(it[name + "_raw_s"] for it in iters)
    return metrics, iters, {**theta_breakdown(iters), "raw": raw}


def measure_layers(args, deadline: float) -> tuple[dict, list[dict], dict]:
    plain = run_worker(args, False, deadline)
    traced = run_worker(args, True, deadline)
    metrics = dict(traced["layers"])
    for m in SPEC["per_layer"]:
        if m["name"].startswith("suites."):
            metrics[m["name"]] = traced["cold"]["norm"].get(m["name"], 0.0)
    extra = theta_breakdown([plain])
    for name in ("count_s", "weighted_s", "vectors_per_s"):
        metrics[f"theta.{name}"] = extra.get(name, 0.0)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    return metrics, [plain, traced], {"raw": {"trace.wall_s": traced["wall_raw_s"]}}


def report(args, metrics: dict, iters: list[dict], extra: dict, declared: list[dict]) -> dict:
    attempted = sum(it["attempted"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    print(machine_facts())
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(iters)} fresh-process iteration(s), closed loop, 1 caller")
    raw = extra.get("raw", {})
    for m in declared:
        note = f"   (raw wall-clock {raw[m['name']]:.6g} s)" if m["name"] in raw else ""
        print(f"  {m['name']:<28} {metrics[m['name']]:>16.6g} {m['unit']}{note}")
    if not args.trace:
        for name, unit in (("count_s", "s"), ("weighted_s", "s"), ("vectors_per_s", "1/s")):
            if name in extra:
                print(f"  {name:<28} {extra[name]:>16.6g} {unit}")
            else:
                print(f"  {name:<28} {'n/a':>16} {unit} (theta-e8 only)")
    print(f"  {'fail_ratio':<28} {failed / attempted:>16.6g} ratio ({failed} of {attempted} checks failed)")
    for it in iters:
        for what in it["failures"]:
            print(f"  FAILED {what}")
    values = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    if not (SRC / "theta_forms" / "__init__.py").is_file():
        print(f"no theta_forms sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    try:
        metrics, iters, extra = (measure_layers if args.trace else measure)(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != {m["name"] for m in declared}:
        print(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}",
              file=sys.stderr)
        return 1
    print(json.dumps(report(args, metrics, iters, extra, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
