"""One iteration of a workload in a fresh process: a cold pass, then a warm
pass of the same work, with every correctness check counted.

    python3 perfbench/worker.py --workload construct --seed 3 [--size tiny] [--trace]

Prints one JSON object on stdout: per pass, the raw and reference-normalised
seconds of every lap (see refclock.py).  With --trace the fixed-input probes
run first, untraced, and then the layer wrappers are installed for both
passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(ln for ln in fh if ln.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import theta_forms
    if Path(theta_forms.__file__).resolve().parent.parent != SRC:
        print(f"theta_forms imported from {theta_forms.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tr
    from probes import run_probes
    from refclock import Clock
    from workloads import WORKLOADS, Checks

    run_pass = WORKLOADS[args.workload]
    layers = tracer = None
    if args.trace:
        layers = run_probes(scale=1 if args.size == "full" else 10)
        tracer = tr.Tracer()
        tr.install(tracer)

    checks = Checks()
    result = {}
    for phase in ("cold", "warm"):
        with Clock() as clock:
            run_pass(args.seed, args.size, checks, clock)
        if tracer is not None:
            tracer.trace_memory = False     # the warm pass repeats the same peak
        result[phase] = {"raw": clock.raw, "norm": clock.norm, "counts": clock.counts}

    if tracer is not None:
        for ok, what in tr.wiring_checks(tracer, args.workload):
            checks.check(ok, what)
        layers.update(tr.layer_metrics(tracer))
    result.update(peak_rss_mb=peak_rss_mb(), attempted=checks.attempted,
                  failed=len(checks.failures), failures=checks.failures[:10], layers=layers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
