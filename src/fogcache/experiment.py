"""Experiment orchestration: plans, scheme sweeps, aggregation, reports."""
from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .catalog import (ContentCatalog, InterestWorkload, generate_interests,
                      zipf_catalog)
from .centrality import (CentralityScores, ReplicationPolicy,
                         betweenness_centrality, cbc_replication,
                         closeness_centrality, degree_centrality,
                         eigenvector_centrality)
from .graph import PathCache, Topology, load_topology
from .placement import CacheAssignment, place_fog, place_noncollaborative
from .simulator import (RoleAssignment, SimMetrics, assign_roles,
                        cache_hit_rate, pooled_hit_rate, run_simulation,
                        success_rate)
from .synthetic import generate_synthetic_topology

# schemes that place caches with place_fog in the order of a centrality of
# the same name; the other two ignore node scores and alpha
RANKED = ("cbc", "degree", "closeness", "betweenness", "eigenvector")
SCHEMES = RANKED + ("lru_social_unaware", "no_fog")

CSV_COLUMNS = ("topology", "scheme", "alpha", "repetition", "seed",
               "hit_rate", "success_rate", "generated", "cache_satisfied",
               "origin_satisfied", "unsatisfied", "pooled_hit_rate")

CONFIG_KEYS = ("topologies", "schemes", "alphas", "repetitions", "interests",
               "buffer_items", "catalog_size", "zipf_exponent",
               "consumer_frac", "provider_frac", "master_seed", "output_dir",
               "workers")


@dataclass(frozen=True)
class ExperimentPlan:
    topologies: tuple[tuple[str, Topology], ...]
    schemes: tuple[str, ...] = SCHEMES
    alphas: tuple[float, ...] = (0.25, 0.5, 0.75)
    repetitions: int = 10
    interests_per_run: int = 2_000
    buffer_items: int = 2
    catalog_size: int = 100
    zipf_exponent: float = 1.0
    chunk_kb: int = 1024
    consumer_frac: float = 0.3
    provider_frac: float = 0.3
    master_seed: int = 7
    workers: int = 1

    def __post_init__(self):
        if not self.topologies:
            raise ValueError("plan needs at least one topology")
        if not self.schemes:
            raise ValueError("plan needs at least one scheme")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if any(not 0.0 <= a <= 1.0 for a in self.alphas):
            raise ValueError("every alpha must lie in [0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def catalog(self) -> ContentCatalog:
        return zipf_catalog(self.catalog_size, self.zipf_exponent, self.chunk_kb)


def default_topologies(node_count: int = 330, radius: float = 0.078,
                       seeds=(6, 11, 25)):
    """The three built-in geometric snapshots used by the default plan."""
    topologies = []
    for i, seed in enumerate(seeds, start=1):
        topo = generate_synthetic_topology("geometric", node_count, radius, seed)
        topologies.append((f"topology{i}", topo))
    return tuple(topologies)


def default_plan(**overrides) -> ExperimentPlan:
    return ExperimentPlan(topologies=default_topologies(), **overrides)


def derive_seed(master_seed: int, topology_index: int, repetition: int,
                purpose: str) -> int:
    """Stable per-cell seed.  Scheme and alpha are deliberately left out so
    every scheme and every alpha within a (topology, repetition) cell sees the
    identical roles and interest sequence (paired comparisons)."""
    key = f"{master_seed}|{topology_index}|{repetition}|{purpose}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


@dataclass
class ResultTable:
    rows: list[dict]
    aggregates: list[dict]


def _mean(values):
    return math.fsum(values) / len(values)


def _stddev(values):
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(math.fsum((v - mu) ** 2 for v in values) / (len(values) - 1))


def centrality_for(kind: str, topology: Topology, cache: PathCache,
                   roles: RoleAssignment | None = None,
                   policy: ReplicationPolicy | None = None) -> CentralityScores:
    """Node scores of the ``RANKED`` scheme ``kind``.  Only ``cbc`` reads the
    cell's ``roles`` and ``policy``."""
    if kind == "degree":
        return degree_centrality(topology)
    if kind == "closeness":
        return closeness_centrality(topology, cache)
    if kind == "betweenness":
        return betweenness_centrality(topology, cache)
    if kind == "eigenvector":
        return eigenvector_centrality(topology)
    if kind == "cbc":
        return cbc_replication(topology, roles.consumers, policy,
                               sorted(roles.providers), cache)
    raise ValueError(f"unknown centrality kind {kind!r}")


def assignment_for(scheme: str, topology: Topology,
                   scores: CentralityScores | None, catalog: ContentCatalog,
                   providers, policy: ReplicationPolicy) -> CacheAssignment:
    """Cache contents of ``scheme`` over the sorted ``providers``; ``scores``
    ranks the fog of a ``RANKED`` scheme and is ignored otherwise."""
    if scheme == "lru_social_unaware":
        # cold start: providers begin empty and fill greedily with whatever
        # popular content streams past on return paths
        assignment = CacheAssignment(scheme=scheme, common_parts={},
                                     unique_parts={v: () for v in providers},
                                     fog=tuple(providers), alpha=None,
                                     buffer_items=policy.buffer_items)
    elif scheme == "no_fog":
        assignment = place_noncollaborative(catalog, providers,
                                            policy.buffer_items)
    elif scheme in RANKED:
        assignment = place_fog(topology, scores, catalog, providers,
                               policy.buffer_items, policy.alpha)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return replace(assignment, scheme=scheme)


def measure(metrics: SimMetrics) -> dict:
    """The result columns of one simulation run."""
    return {"hit_rate": cache_hit_rate(metrics),
            "success_rate": success_rate(metrics),
            "generated": metrics.interests_generated,
            "cache_satisfied": metrics.satisfied_from_cache,
            "origin_satisfied": metrics.satisfied_from_origin,
            "unsatisfied": metrics.unsatisfied,
            "pooled_hit_rate": pooled_hit_rate(metrics)}


def simulate(topology: Topology, assignment: CacheAssignment,
             roles: RoleAssignment, workload: InterestWorkload,
             cache: PathCache) -> dict:
    """Measure ``assignment`` on ``workload``.  Only the LRU scheme's caches
    change at runtime."""
    lru = assignment.scheme == "lru_social_unaware"
    return measure(run_simulation(topology, assignment, roles, workload,
                                  lru_enabled=lru, path_cache=cache))


def _run_topology(plan: ExperimentPlan, topology_index: int) -> list[dict]:
    label, topology = plan.topologies[topology_index]
    catalog = plan.catalog()
    cache = PathCache(topology)
    # classic scores depend on the topology alone, cbc also on roles and alpha
    classic = {kind: centrality_for(kind, topology, cache)
               for kind in RANKED if kind != "cbc" and kind in plan.schemes}

    rows = []
    for rep in range(plan.repetitions):
        roles_seed = derive_seed(plan.master_seed, topology_index, rep, "roles")
        workload_seed = derive_seed(plan.master_seed, topology_index, rep, "workload")
        roles = assign_roles(topology, plan.consumer_frac, plan.provider_frac,
                             roles_seed)
        workload = generate_interests(catalog, roles.consumers,
                                      plan.interests_per_run, workload_seed)
        providers = sorted(roles.providers)
        # schemes outside RANKED ignore alpha: measure them once per repetition
        alpha_free: dict[str, dict] = {}
        for alpha in plan.alphas:
            policy = ReplicationPolicy(alpha, plan.buffer_items, plan.catalog_size)
            scores = dict(classic)
            if "cbc" in plan.schemes:
                scores["cbc"] = centrality_for("cbc", topology, cache, roles, policy)
            for scheme in plan.schemes:
                measured = alpha_free.get(scheme)
                if measured is None:
                    assignment = assignment_for(scheme, topology, scores.get(scheme),
                                                catalog, providers, policy)
                    measured = simulate(topology, assignment, roles, workload, cache)
                    if scheme not in RANKED:
                        alpha_free[scheme] = measured
                rows.append({"topology": label, "scheme": scheme,
                             "alpha": alpha, "repetition": rep,
                             "seed": workload_seed, **measured})
    return rows


_NUMERIC = ("hit_rate", "success_rate", "generated", "cache_satisfied",
            "origin_satisfied", "unsatisfied", "pooled_hit_rate")


def run_experiment(plan: ExperimentPlan) -> ResultTable:
    """Run every (topology, scheme, alpha, repetition) cell and aggregate.

    Topologies are independent jobs; with ``plan.workers`` > 1 they execute in
    a process pool, and rows are merged in topology order so the output bytes
    never depend on the worker count.
    """
    indices = range(len(plan.topologies))
    if plan.workers > 1 and len(plan.topologies) > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            per_topology = list(pool.map(_run_topology, [plan] * len(plan.topologies),
                                         indices))
    else:
        per_topology = [_run_topology(plan, i) for i in indices]
    rows = [row for chunk in per_topology for row in chunk]

    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["topology"], r["scheme"], r["alpha"]), []).append(r)
    aggregates = []
    for label, _ in plan.topologies:
        for alpha in plan.alphas:
            for scheme in plan.schemes:
                members = groups[label, scheme, alpha]
                for stat, fn in (("mean", _mean), ("stddev", _stddev)):
                    aggregates.append({
                        "topology": label, "scheme": scheme, "alpha": alpha,
                        "repetition": stat, "seed": "",
                        **{k: fn([r[k] for r in members]) for k in _NUMERIC}})
    return ResultTable(rows=rows, aggregates=aggregates)


def _format_value(key, value):
    if key in ("topology", "scheme", "repetition", "seed"):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def table_to_csv(table: ResultTable) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in table.rows + table.aggregates:
        lines.append(",".join(_format_value(k, row[k]) for k in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _means(table: ResultTable) -> dict[tuple, dict]:
    """Mean aggregate rows keyed by (topology, scheme, alpha)."""
    means: dict[tuple, dict] = {}
    for row in table.aggregates:
        if row["repetition"] == "mean":
            means.setdefault((row["topology"], row["scheme"], row["alpha"]), row)
    return means


def mean_metric(table: ResultTable, topology: str, scheme: str, alpha: float,
                metric: str = "hit_rate") -> float:
    row = _means(table).get((topology, scheme, alpha))
    if row is None:
        raise KeyError(f"no aggregate for ({topology}, {scheme}, {alpha})")
    return row[metric]


def summary_text(table: ResultTable) -> str:
    """Plain-text scheme x topology matrices of mean hit rate and success
    rate, with one sub-row per replication ratio."""
    topologies = list(dict.fromkeys(r["topology"] for r in table.rows))
    schemes = list(dict.fromkeys(r["scheme"] for r in table.rows))
    alphas = list(dict.fromkeys(r["alpha"] for r in table.rows))
    means = _means(table)
    blocks = []
    for metric in ("hit_rate", "success_rate"):
        lines = [f"== mean {metric} (rows: scheme / alpha, columns: topology) =="]
        header = f"{'scheme':<20}{'alpha':>8}" + "".join(
            f"{t:>14}" for t in topologies)
        lines.append(header)
        for scheme in schemes:
            for alpha in alphas:
                cells = "".join(f"{means[t, scheme, alpha][metric]:>14.4f}"
                                for t in topologies)
                lines.append(f"{scheme:<20}{alpha:>8.2f}" + cells)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def emit_report(table: ResultTable, destination, gnuplot: bool = False) -> list[Path]:
    """Write results.csv and summary.txt (plus optional gnuplot .dat files)
    under ``destination``."""
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)
    written = []
    csv_path = dest / "results.csv"
    csv_path.write_text(table_to_csv(table))
    written.append(csv_path)
    summary_path = dest / "summary.txt"
    summary_path.write_text(summary_text(table))
    written.append(summary_path)
    if gnuplot:
        topologies = list(dict.fromkeys(r["topology"] for r in table.rows))
        schemes = list(dict.fromkeys(r["scheme"] for r in table.rows))
        alphas = list(dict.fromkeys(r["alpha"] for r in table.rows))
        means = _means(table)
        for metric in ("hit_rate", "success_rate"):
            for topology in topologies:
                path = dest / f"{metric}_{topology}.dat"
                lines = ["# alpha " + " ".join(schemes)]
                for alpha in alphas:
                    cells = " ".join(f"{means[topology, s, alpha][metric]:.6f}"
                                     for s in schemes)
                    lines.append(f"{alpha:.2f} {cells}")
                path.write_text("\n".join(lines) + "\n")
                written.append(path)
    return written


def parse_config(text: str) -> dict:
    """Flat ``key = value`` config; '#' starts a comment, lists are
    comma-separated.  Unknown keys are rejected."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def plan_from_config(config: dict, base_dir=".") -> tuple[ExperimentPlan, str]:
    """Build a plan from parsed config values (strings), resolving topology
    files relative to ``base_dir``.  Returns (plan, output_dir)."""
    base = Path(base_dir)
    kwargs = {}
    if config.get("topologies"):
        topologies = []
        for item in str(config["topologies"]).split(","):
            path = base / item.strip()
            topo = load_topology(path.read_text(), label=path.stem)
            topologies.append((path.stem, topo))
        kwargs["topologies"] = tuple(topologies)
    else:
        kwargs["topologies"] = default_topologies()
    if config.get("schemes"):
        kwargs["schemes"] = tuple(s.strip() for s in str(config["schemes"]).split(","))
    if config.get("alphas"):
        kwargs["alphas"] = tuple(float(a) for a in str(config["alphas"]).split(","))
    for key, attr, cast in (("repetitions", "repetitions", int),
                            ("interests", "interests_per_run", int),
                            ("buffer_items", "buffer_items", int),
                            ("catalog_size", "catalog_size", int),
                            ("zipf_exponent", "zipf_exponent", float),
                            ("consumer_frac", "consumer_frac", float),
                            ("provider_frac", "provider_frac", float),
                            ("master_seed", "master_seed", int),
                            ("workers", "workers", int)):
        if key in config and config[key] != "":
            try:
                kwargs[attr] = cast(config[key])
            except ValueError:
                raise ValueError(f"config key {key!r}: invalid value "
                                 f"{config[key]!r}") from None
    output_dir = str(config.get("output_dir", "results"))
    return ExperimentPlan(**kwargs), output_dir
