#!/usr/bin/env python3
"""fogcache benchmark: times the experiment sweep end to end and, with
``--trace 1``, attributes one traced iteration to the library's layers.

    python3 benchmarks/run.py --workload paper_default --seed 7 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 7 --seconds 40 --trace 0

Run it from anywhere; it imports ``fogcache`` from the ``src/`` directory of
the checkout it sits in.  It prints every metric by name and unit, then, as
its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  A record of each
run (provenance, every metric, and with ``--trace 1`` the span dump) is
written to ``.bench_out/`` in the checkout.  See benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from benchmarks/workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; becomes the plan's master_seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the timed iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(names, args) -> int:
    """Each workload in a fresh process, so one workload's memory high-water
    mark cannot leak into another's ``peak_rss_mb``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fogcache" / "__init__.py").is_file():
        print(f"error: no fogcache package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from measure import run_workload
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_workload(WORKLOADS[args.workload], args, spec, ROOT)


if __name__ == "__main__":
    sys.exit(main())
