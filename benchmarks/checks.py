"""Correctness checks the benchmark runs outside its timed region.

Each check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from fogcache.centrality import (ReplicationPolicy, cbc_exact, cbc_replication,
                                 concretize_classes)
from fogcache.experiment import ExperimentPlan, ResultTable, derive_seed
from fogcache.graph import PathCache
from fogcache.simulator import assign_roles

RATES = ("hit_rate", "success_rate", "pooled_hit_rate")
REPORT_FILES = ("results.csv", "summary.txt")
CBC_REL_TOL = 1e-9
# cbc_exact costs about 17 ms per consumer at n=2000, so larger consumer
# sets are checked on a seeded sample of this size
CBC_CHECK_CONSUMERS = 100


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_table(plan: ExperimentPlan, table: ResultTable) -> list[str]:
    """Row count, per-row interest conservation and rate ranges."""
    problems = []
    expected = (len(plan.topologies) * len(plan.schemes) * len(plan.alphas)
                * plan.repetitions)
    if len(table.rows) != expected:
        problems.append(f"{len(table.rows)} rows, expected {expected}")
    for row in table.rows:
        # consumers never cache, so no interest is satisfied at its source
        served = row["cache_satisfied"] + row["origin_satisfied"] + row["unsatisfied"]
        if row["generated"] != served:
            problems.append(f"row {row['topology']}/{row['scheme']}/"
                            f"{row['alpha']}/{row['repetition']}: generated "
                            f"{row['generated']} != served {served}")
    means = [r for r in table.aggregates if r["repetition"] == "mean"]
    for row in table.rows + means:
        for key in RATES:
            if not 0.0 <= row[key] <= 1.0:
                problems.append(f"{key}={row[key]} outside [0, 1] in "
                                f"{row['topology']}/{row['scheme']}/{row['alpha']}")
    return problems


def check_cbc(plan: ExperimentPlan) -> list[str]:
    """On the plan's first cell, ``cbc_replication`` must match
    ``cbc_exact`` over the concrete placement of the same replica classes."""
    if "cbc" not in plan.schemes:
        return []
    _, topology = plan.topologies[0]
    roles = assign_roles(topology, plan.consumer_frac, plan.provider_frac,
                         derive_seed(plan.master_seed, 0, 0, "roles"))
    consumers = roles.consumers
    if len(consumers) > CBC_CHECK_CONSUMERS:
        consumers = sorted(random.Random(plan.master_seed)
                           .sample(consumers, CBC_CHECK_CONSUMERS))
    providers = sorted(roles.providers)
    policy = ReplicationPolicy(alpha=plan.alphas[0], buffer_items=plan.buffer_items,
                               catalog_size=plan.catalog_size)
    cache = PathCache(topology)
    fast = cbc_replication(topology, consumers, policy, providers, cache).raw
    exact = cbc_exact(topology, consumers, concretize_classes(policy, providers),
                      plan.catalog_size, cache).raw
    worst = max((abs(a - b) / max(abs(a), abs(b))
                 for a, b in zip(fast, exact) if a != b), default=0.0)
    if worst > CBC_REL_TOL:
        return [f"cbc_replication differs from cbc_exact by {worst:.3g} "
                f"relative on the first cell (alpha={plan.alphas[0]})"]
    return []


def check_cli_parity(root: Path, seed: int, reports: dict[str, bytes],
                     workdir: Path, timeout_s: float) -> list[str]:
    """``fogcache experiment --workers 1`` at ``seed`` must write the same
    report bytes as the library-driven run that produced ``reports``."""
    out = workdir / "cli"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fogcache.cli", "experiment", "--workers", "1",
             "--master-seed", str(seed), "--output-dir", str(out)],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return [f"fogcache experiment did not finish within {timeout_s:.0f} s"]
    if proc.returncode != 0:
        return [f"fogcache experiment exited {proc.returncode}: {proc.stderr.strip()}"]
    problems = []
    for name in REPORT_FILES:
        cli_bytes = (out / name).read_bytes()
        if cli_bytes != reports[name]:
            problems.append(f"{name}: CLI sha256 {sha256_hex(cli_bytes)[:12]} != "
                            f"library sha256 {sha256_hex(reports[name])[:12]}")
    return problems
