"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serving --seed 1 --seconds 30 --trace 0

``--trace 0`` times a closed loop of untraced runs and reports the
end-to-end metrics; ``--trace 1`` does the same and then one traced run,
and reports the per-layer metrics instead.  Human-readable lines go
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is nonzero when any output check failed.

The simulator is imported from ``src/`` next to this directory; without
it the command exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The held-out seed is the one later claims are checked on without
# having been tuned on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

END_TO_END = {
    "sim_ops_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles_per_txn": "cycles",
    "probes_per_s": "1/s",
    "probe_ms_p90": "ms",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from layers import per_layer_names
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    if args.trace:
        units = dict(per_layer_names())
        values = out.layers
    else:
        units = END_TO_END
        values = out.metrics

    samples = ", ".join(f"{k}={v}" for k, v in out.samples.items())
    print(f"[perfbench] {args.workload} seed={args.seed} "
          f"trace={args.trace} ({samples})")
    for name, unit in units.items():
        print(f"[perfbench]   {name:40s} {values[name]:>16.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in out.report_only.items():
            print(f"[perfbench]   {name:40s} {value:>16.6g} {unit} "
                  f"(report only)")
    failed = len(out.failures)
    print(f"[perfbench]   {'failed_frac':40s} "
          f"{failed / out.attempted:>16.6g} ratio "
          f"({failed} of {out.attempted} checks)")
    for why in out.failures:
        print(f"[perfbench] FAILED: {why}")

    print(json.dumps({
        "correct": not failed,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
