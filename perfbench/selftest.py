"""The benchmark's own test: deterministic counts and the held-out seed.

Usage (from the repository root)::

    python3 perfbench/selftest.py            # check; report drift
    python3 perfbench/selftest.py --write    # also rewrite counts.json

For every workload it

1. makes two traced runs on the default seed, in separate processes,
   and requires every deterministic per-layer metric (each
   ``<layer>.calls`` and each simulated counter) to be identical;
2. makes one untraced run on the held-out seed and requires its output
   checks to pass;
3. compares the deterministic metrics with the record in
   ``counts.json`` and lists every count that moved.  A change that
   only speeds the simulator up must leave the simulated counters
   exactly as recorded; call counts show which layers it touched.

Exits nonzero if a run fails its checks or the counts do not repeat.
Drift from the record is reported, not failed: the record describes the
commit that wrote it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "counts.json")
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, HELD_OUT_SEED, SRC  # noqa: E402

sys.path.insert(0, SRC)
from layers import is_deterministic  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SECONDS = 1


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed={seed} trace={trace}: exit "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if is_deterministic(name)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite counts.json from this commit")
    args = parser.parse_args(argv)

    problems = []
    record = {}
    for workload in WORKLOADS:
        first = counts(run(workload, DEFAULT_SEED, 1))
        second = counts(run(workload, DEFAULT_SEED, 1))
        moved = sorted(k for k in first if first[k] != second.get(k))
        if moved:
            problems.append(f"{workload}: counts differ between two "
                            f"traced runs: {', '.join(moved)}")
        held_out = run(workload, HELD_OUT_SEED, 0)
        if not held_out["correct"]:
            problems.append(f"{workload}: held-out seed {HELD_OUT_SEED} "
                            f"failed its output checks")
        record[workload] = first
        print(f"[selftest] {workload}: {len(first)} counts "
              f"{'repeat' if not moved else 'DO NOT repeat'}; held-out "
              f"seed {HELD_OUT_SEED} "
              f"{'passes' if held_out['correct'] else 'FAILS'}")

    if os.path.exists(RECORD):
        with open(RECORD) as fh:
            stored = json.load(fh)["counts"]
        for workload, now in record.items():
            for name, value in now.items():
                was = stored.get(workload, {}).get(name)
                if was != value:
                    print(f"[selftest] drift {workload} {name}: "
                          f"{was} -> {value}")
    if args.write:
        with open(RECORD, "w") as fh:
            json.dump({"seed": DEFAULT_SEED, "counts": record}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
        print(f"[selftest] wrote {RECORD}")

    for problem in problems:
        print(f"[selftest] FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
