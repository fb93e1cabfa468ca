"""Record the digests that the workloads' outputs must match.

    python3 perfbench/record.py            # print the digests as JSON
    python3 perfbench/record.py --write    # overwrite perfbench/expected.json

Suite lines are recorded at seed 0; they do not depend on the seed.  Run it
only when an output is meant to change, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402  (needs the path above)


def record(size: str) -> dict:
    suite_digests = {}
    for name in list(wl.suites.SUITES):
        kwargs = wl.TINY_SUITE_ARGS.get(name, {}) if size == "tiny" else {}
        suite_digests[name] = wl.suite_lines_digest(wl.suites.run_suite(name, seed=0, **kwargs))
    construct = {}
    for builder, sig in wl.LADDER[size]:
        c = wl.build_item(builder, sig)
        construct[wl.item_key(builder, sig)] = {
            "json": wl.sha256(wl.serialize.cochain_to_json(c)),
            "latex": wl.sha256(wl.serialize.cochain_to_latex(c)),
        }
    return {"suites": suite_digests, "construct": construct}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    text = json.dumps({size: record(size) for size in ("full", "tiny")}, indent=2) + "\n"
    if args.write:
        wl.EXPECTED_FILE.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
