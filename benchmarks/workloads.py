"""The benchmark's workloads, one ExperimentPlan builder each.

Topology seeds are fixed per workload, so every run measures the same
graphs.  The run's ``--seed`` becomes the plan's ``master_seed``, which draws
the consumer/provider roles and the interest sequences.  Every plan runs at
``workers=1``: the process pool is left to a workload of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from fogcache import experiment, synthetic
from fogcache.experiment import ExperimentPlan


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], ExperimentPlan]
    # seed -> expected results.csv sha256 prefix
    reference_sha256: dict[int, str] = field(default_factory=dict)
    # the plan is the one `fogcache experiment --workers 1` builds
    cli_parity: bool = False


def _geometric(node_count: int, seed: int):
    # radius scaled so the mean degree stays near the n=330 default's
    radius = 0.078 * math.sqrt(330 / node_count)
    return synthetic.generate_synthetic_topology("geometric", node_count,
                                                 radius, seed)


def _paper_default(seed: int) -> ExperimentPlan:
    return experiment.default_plan(master_seed=seed, workers=1)


def _cbc_n2000(seed: int) -> ExperimentPlan:
    return ExperimentPlan(topologies=(("geometric-n2000", _geometric(2000, 6)),),
                          schemes=("cbc", "betweenness", "no_fog"),
                          alphas=(0.0, 0.25, 0.5, 0.75, 1.0), repetitions=1,
                          interests_per_run=2_000, master_seed=seed, workers=1)


def _lru_churn(seed: int) -> ExperimentPlan:
    # LRU ignores alpha, so one alpha is enough
    return ExperimentPlan(topologies=(("geometric-n1000", _geometric(1000, 6)),),
                          schemes=("lru_social_unaware",), alphas=(0.5,),
                          repetitions=5, interests_per_run=50_000,
                          buffer_items=10, catalog_size=2_000,
                          master_seed=seed, workers=1)


WORKLOADS = {w.name: w for w in (
    Workload("paper_default",
             "the built-in 3-topology, 7-scheme sweep users run; static "
             "simulation and CBC dominate",
             _paper_default, reference_sha256={7: "54d7fd840f4b"}, cli_parity=True),
    Workload("cbc_n2000",
             "one n=2000 topology where the Brandes CBC kernel, BFS and "
             "PathCache memory dominate and the simulator does little",
             _cbc_n2000),
    Workload("lru_churn",
             "one n=1000 topology, LRU only, 50k interests: cache churn and "
             "routing dominate, centrality does no work",
             _lru_churn),
)}
