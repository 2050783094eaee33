"""One workload run: set-up, timed iterations, checks, the optional traced
iteration, and the result line.  ``run.py`` is the entry point."""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy

from checks import (REPORT_FILES, check_cbc, check_cli_parity, check_table,
                    sha256_hex)
from fogcache import experiment
from spans import (EMIT_SPAN, ROOT_SPAN, Tracer, accounting_gap, installed,
                   layer_metrics)

# set-up is cheap next to an iteration, so each cycle repeats it for this long
SETUP_SLICE_S = 1.0
# a run must end within this many seconds; the CLI parity run gets what is left
RUN_LIMIT_S = 170.0


class Runs:
    """Checked runs and their problems; ``failed_frac`` is failed/attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path) -> str | None:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(args, root: Path) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
        "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root), "src_sha256": _src_digest(root / "src"),
        "loadavg_before": os.getloadavg(),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _iteration(plan, dest: Path):
    """One timed unit: what ``fogcache experiment`` does after set-up."""
    t0 = perf_counter()
    table = experiment.run_experiment(plan)
    experiment.emit_report(table, dest)
    return perf_counter() - t0, table


def _read_reports(dest: Path) -> dict[str, bytes]:
    return {name: (dest / name).read_bytes() for name in REPORT_FILES}


def _output_problems(plan, table, reports, expected_sha: str | None,
                     reference_prefix: str | None) -> list[str]:
    problems = check_table(plan, table)
    sha = sha256_hex(reports["results.csv"])
    if expected_sha is not None and sha != expected_sha:
        problems.append(f"results.csv sha256 {sha[:12]} differs from the "
                        f"first run's {expected_sha[:12]}")
    if reference_prefix is not None and not sha.startswith(reference_prefix):
        problems.append(f"results.csv sha256 {sha[:12]} is not the reference "
                        f"{reference_prefix}")
    return problems


def _timed_cycles(workload, seed: int, seconds: float, tmp: Path, runs: Runs,
                  reserve: int):
    """Set up and run the workload in cycles, as ``fogcache experiment`` does.

    A cycle builds the plan until SETUP_SLICE_S is spent (at least once),
    timing each build, then times one iteration of the last plan built.
    Spreading the builds over the run keeps one slow moment of the machine
    from deciding ``setup_s``.  Cycles repeat while the next one, plus
    ``reserve`` more, is expected to fit in ``seconds``; at least one runs.
    Returns the set-up times, the iteration wall times, the plan and the
    first passing iteration's report bytes.
    """
    reference_prefix = workload.reference_sha256.get(seed)
    setups: list[float] = []
    walls: list[float] = []
    cycles: list[float] = []
    first_reports = first_sha = None
    loop_start = perf_counter()
    while True:
        cycle_start = perf_counter()
        while True:
            t0 = perf_counter()
            plan = workload.build(seed)
            setups.append(perf_counter() - t0)
            if perf_counter() - cycle_start >= SETUP_SLICE_S:
                break
        dest = tmp / f"run{runs.attempted}"
        label = f"timed iteration {runs.attempted + 1}"
        try:
            wall, table = _iteration(plan, dest)
        except Exception:  # noqa: BLE001 - a raising run is counted, not fatal
            traceback.print_exc()
            runs.record(label, ["raised"])
        else:
            reports = _read_reports(dest)
            problems = _output_problems(plan, table, reports, first_sha,
                                        reference_prefix)
            runs.record(label, problems)
            if not problems:
                walls.append(wall)
                if first_reports is None:
                    first_reports = reports
                    first_sha = sha256_hex(reports["results.csv"])
        shutil.rmtree(dest, ignore_errors=True)
        cycles.append(perf_counter() - cycle_start)
        elapsed = perf_counter() - loop_start
        if elapsed + statistics.median(cycles) * (1 + reserve) > seconds:
            return setups, walls, plan, first_reports


def _traced_run(workload, seed: int, untraced_wall_s: float, tmp: Path,
                runs: Runs, expected_sha: str | None):
    """Traced set-up and iteration; returns (layer metrics, span dump)."""
    setup = Tracer()
    with installed(setup):
        plan = setup.call("bench.setup", workload.build, seed)
    tracer = Tracer([topology for _, topology in plan.topologies])
    dest = tmp / "traced"

    def iteration():
        table = experiment.run_experiment(plan)
        return table, tracer.call(EMIT_SPAN, experiment.emit_report, table, dest)

    with installed(tracer):
        table, written = tracer.call(ROOT_SPAN, iteration)
    problems = _output_problems(plan, table, _read_reports(dest), expected_sha,
                                workload.reference_sha256.get(seed))
    metrics = layer_metrics(setup, tracer, untraced_wall_s,
                            sum(path.stat().st_size for path in written))
    gap = accounting_gap(metrics)
    if abs(gap) > 1e-6 * metrics["bench.traced_wall_s"][0]:
        problems.append(f"layer self times miss the traced wall by {gap:.3g} s")
    if metrics["experiment.self_s"][0] < 0:
        problems.append("experiment.self_s is negative")
    runs.record("traced iteration", problems)
    return metrics, {"span_fields": ["id", "name", "start_s", "end_s", "parent", "job"],
                     "setup": setup.dump(), "iteration": tracer.dump()}


def _select(spec_metrics: list[dict], measured: dict) -> dict:
    """The metrics BENCHMARK.json names, with their units checked."""
    selected = {}
    for entry in spec_metrics:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        selected[entry["name"]] = {"value": value, "unit": unit}
    return selected


def _print_metrics(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        text = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {text:>14} {unit}")


def run_workload(workload, args, spec: dict, root: Path) -> int:
    """Measure ``workload`` as ``args`` asks and print the result line."""
    out = root / ".bench_out"
    started = perf_counter()
    provenance = _provenance(args, root)
    runs = Runs()

    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp_name:
        tmp = Path(tmp_name)
        # a traced run spends one cycle's worth of its budget on the trace
        setup_times, walls, plan, reports = _timed_cycles(
            workload, args.seed, args.seconds, tmp, runs, reserve=args.trace)
        peak_rss_mb = _peak_rss_mb()
        if not walls:
            print("error: no timed iteration passed its checks:", file=sys.stderr)
            print("\n".join(runs.problems), file=sys.stderr)
            return 1
        sha = sha256_hex(reports["results.csv"])
        wall_s = statistics.median(walls)

        try:
            problems = check_cbc(plan)
        except Exception:  # noqa: BLE001 - a raising check is counted, not fatal
            traceback.print_exc()
            problems = ["raised"]
        runs.record("cbc cross-check", problems)
        measured = {"wall_s": (wall_s, "s"),
                    "setup_s": (statistics.median(setup_times), "s"),
                    "peak_rss_mb": (peak_rss_mb, "MB")}
        record = {}
        if args.trace:
            layers, record["spans"] = _traced_run(workload, args.seed, wall_s,
                                                  tmp, runs, sha)
            measured.update(layers)

        if workload.cli_parity:
            marker = out / f"parity-{provenance['src_sha256'][:16]}.json"
            if not marker.exists():
                timeout = RUN_LIMIT_S - (perf_counter() - started)
                problems = check_cli_parity(root, args.seed, reports, tmp, timeout)
                runs.record("CLI parity", problems)
                if not problems:
                    marker.write_text(json.dumps({"seed": args.seed,
                                                  "results_sha256": sha}) + "\n")
            else:
                print(f"CLI parity already checked for this source ({marker.name})")

    provenance["loadavg_after"] = os.getloadavg()
    failed_frac = runs.failed / runs.attempted
    print(f"workload {workload.name}  seed {args.seed}  "
          f"timed iterations {len(walls)}  set-ups {len(setup_times)}")
    print(f"  wall_s samples  {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"  setup_s samples {' '.join(f'{s:.4f}' for s in setup_times)}")
    _print_metrics({**measured, "failed_frac": (failed_frac, "ratio")})
    print(f"  failed_frac base: {runs.failed} failed of {runs.attempted} checked runs")
    print(f"  results_sha256 {sha}")
    for problem in runs.problems:
        print(f"  FAILED {problem}")
    print(f"provenance {json.dumps(provenance)}")

    kind = "per_layer" if args.trace else "end_to_end"
    result = {"correct": runs.failed == 0, "attempted": runs.attempted,
              "failed": runs.failed, "metrics": _select(spec[kind], measured)}
    record.update(provenance=provenance, results_sha256=sha,
                  problems=runs.problems, wall_samples=walls,
                  setup_samples=setup_times,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in measured.items()})
    out_file = out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")
    print(f"record written to {out_file.relative_to(root)}")
    print(json.dumps(result))
    return 0
