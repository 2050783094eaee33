"""Experiment orchestration: plans, scheme sweeps, aggregation, reports."""
from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import fmean

from .catalog import (ContentCatalog, InterestWorkload, generate_interests,
                      zipf_catalog)
from .centrality import (CentralityScores, ReplicationPolicy,
                         betweenness_centrality, cbc_replication,
                         closeness_centrality, degree_centrality,
                         eigenvector_centrality)
from .graph import PathCache, Topology, load_topology
from .placement import CacheAssignment, place_fog, place_noncollaborative
from .simulator import (Demand, RoleAssignment, assign_roles, cache_hit_rate,
                        check_role_fractions, pooled_hit_rate, run_simulation,
                        success_rate)
from .synthetic import generate_synthetic_topology

# schemes that place caches with place_fog in the order of a centrality of
# the same name; the other two ignore node scores and alpha
RANKED = ("cbc", "degree", "closeness", "betweenness", "eigenvector")
SCHEMES = RANKED + ("lru_social_unaware", "no_fog")

# the measured columns, which the aggregate rows summarize over repetitions
_METRICS = ("hit_rate", "success_rate", "generated", "cache_satisfied",
            "origin_satisfied", "unsatisfied", "pooled_hit_rate")
CSV_COLUMNS = ("topology", "scheme", "alpha", "repetition", "seed", *_METRICS)


def _listed(cast):
    """Parser of a comma-separated list of ``cast`` values, none of them empty."""
    def parse(text):
        parts = [part.strip() for part in text.split(",")]
        if not all(parts):
            raise ValueError(text)
        return tuple(map(cast, parts))
    return parse


# config key -> (ExperimentPlan field, parser of the key's text); each key is
# also an `experiment` flag, and a key left out takes the field's default
KNOBS = {"schemes": ("schemes", _listed(str)), "alphas": ("alphas", _listed(float)),
         "repetitions": ("repetitions", int), "interests": ("interests_per_run", int),
         "buffer_items": ("buffer_items", int), "catalog_size": ("catalog_size", int),
         "zipf_exponent": ("zipf_exponent", float),
         "consumer_frac": ("consumer_frac", float),
         "provider_frac": ("provider_frac", float),
         "master_seed": ("master_seed", int), "workers": ("workers", int)}
CONFIG_KEYS = ("topologies", *KNOBS, "output_dir")


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
    consumer_frac: float = 0.3
    provider_frac: float = 0.3
    master_seed: int = 7
    workers: int = 1

    def __post_init__(self):
        for name, values in (("topology", self.topologies),
                             ("scheme", self.schemes), ("alpha", self.alphas)):
            if not values:
                raise ValueError(f"plan needs at least one {name}")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        labels = tuple(label for label, _ in self.topologies)
        for name, values in (("topology labels", labels),
                             ("schemes", self.schemes), ("alphas", self.alphas)):
            if len(set(values)) < len(values):
                raise ValueError(f"duplicate {name} in {list(values)}")
        for name, low in (("repetitions", 1), ("interests_per_run", 0),
                          ("workers", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        # the layers' own checks, so a bad knob fails before any cell runs
        check_role_fractions(self.consumer_frac, self.provider_frac)
        self.catalog()
        for alpha in self.alphas:
            ReplicationPolicy(alpha, self.buffer_items, self.catalog_size)

    def catalog(self) -> ContentCatalog:
        return zipf_catalog(self.catalog_size, self.zipf_exponent)


def default_topologies():
    """The three built-in geometric snapshots used by the default plan:
    n = 330, radius 0.078, seeds 6, 11 and 25."""
    return tuple((f"topology{i}",
                  generate_synthetic_topology("geometric", 330, 0.078, seed))
                 for i, seed in enumerate((6, 11, 25), start=1))


def default_plan(**overrides) -> ExperimentPlan:
    return ExperimentPlan(topologies=default_topologies(), **overrides)


def derive_seed(master_seed: int, topology_index: int, repetition: int,
                purpose: str) -> int:
    """Stable per-cell seed.  Scheme and alpha are deliberately left out so
    every scheme and every alpha within a (topology, repetition) cell sees the
    identical roles and interest sequence (paired comparisons)."""
    key = f"{master_seed}|{topology_index}|{repetition}|{purpose}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def cell_roles(plan: ExperimentPlan, topology_index: int, repetition: int
               ) -> RoleAssignment:
    """Roles of one (topology, repetition) cell, drawn without its interests."""
    if repetition < 0:
        raise ValueError(f"repetition must be >= 0, got {repetition}")
    return assign_roles(plan.topologies[topology_index][1], plan.consumer_frac,
                        plan.provider_frac,
                        derive_seed(plan.master_seed, topology_index, repetition,
                                    "roles"))


def cell_inputs(plan: ExperimentPlan, topology_index: int, repetition: int
                ) -> tuple[RoleAssignment, InterestWorkload]:
    """Roles and interests of one (topology, repetition) cell: with
    :func:`cell_roles`, the only code that seeds a cell."""
    roles = cell_roles(plan, topology_index, repetition)
    return roles, generate_interests(
        plan.catalog(), roles.consumers, plan.interests_per_run,
        derive_seed(plan.master_seed, topology_index, repetition, "workload"))


@dataclass
class ResultTable:
    rows: list[dict]
    aggregates: list[dict]


def _stddev(values):
    if len(values) < 2:
        return 0.0
    mu = fmean(values)
    return math.sqrt(math.fsum((v - mu) ** 2 for v in values) / (len(values) - 1))


def centrality_for(kind: str, topology: Topology, cache: PathCache,
                   roles: RoleAssignment | None = None,
                   policy: ReplicationPolicy | None = None) -> CentralityScores:
    """Node scores of the ``RANKED`` scheme ``kind``.  Only ``cbc`` reads the
    cell's ``roles`` and ``policy``."""
    if kind == "degree":
        return degree_centrality(topology)
    if kind == "closeness":
        return closeness_centrality(topology)
    if kind == "betweenness":
        return betweenness_centrality(topology, cache)
    if kind == "eigenvector":
        return eigenvector_centrality(topology)
    if kind == "cbc":
        return cbc_replication(topology, roles.consumers, policy,
                               roles.providers, cache)
    raise ValueError(f"unknown centrality kind {kind!r}")


def assignment_for(scheme: str, scores: CentralityScores | None, providers,
                   policy: ReplicationPolicy) -> CacheAssignment:
    """Cache contents of ``scheme`` over the sorted ``providers``; ``scores``
    ranks the fog of a ``RANKED`` scheme and is ignored otherwise."""
    if scheme == "lru_social_unaware":
        # cold start: providers begin empty and fill greedily with whatever
        # popular content streams past on return paths
        assignment = CacheAssignment(scheme=scheme, common_parts={},
                                     unique_parts={v: () for v in providers},
                                     fog=tuple(providers),
                                     buffer_items=policy.buffer_items)
    elif scheme == "no_fog":
        assignment = place_noncollaborative(providers, policy)
    elif scheme in RANKED:
        assignment = place_fog(scores, providers, policy)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return replace(assignment, scheme=scheme)


def simulate(topology: Topology, assignment: CacheAssignment,
             roles: RoleAssignment, workload: InterestWorkload,
             cache: PathCache, demand: Demand | None = None) -> dict:
    """The result columns of ``assignment`` on ``workload``, whose static
    runs read ``demand`` when given.  Only the LRU scheme's caches change at
    runtime."""
    lru = assignment.scheme == "lru_social_unaware"
    metrics = run_simulation(topology, assignment, roles, workload,
                             lru_enabled=lru, path_cache=cache, demand=demand)
    return {"hit_rate": cache_hit_rate(metrics),
            "success_rate": success_rate(metrics),
            "generated": metrics.interests_generated,
            "cache_satisfied": metrics.satisfied_from_cache,
            "origin_satisfied": metrics.satisfied_from_origin,
            "unsatisfied": metrics.unsatisfied,
            "pooled_hit_rate": pooled_hit_rate(metrics)}


def _run_topology(plan: ExperimentPlan, topology_index: int) -> list[dict]:
    label, topology = plan.topologies[topology_index]
    # only cbc reads path counts, from its consumers: the cache keeps no
    # other source's rows
    readers = (set().union(*(cell_roles(plan, topology_index, rep).consumers
                             for rep in range(plan.repetitions)))
               if "cbc" in plan.schemes else ())
    cache = PathCache(topology, readers)
    # classic scores depend on the topology alone; cbc is computed per cell
    classic = {kind: centrality_for(kind, topology, cache)
               for kind in RANKED if kind != "cbc" and kind in plan.schemes}

    rows = []
    for rep in range(plan.repetitions):
        roles, workload = cell_inputs(plan, topology_index, rep)
        demand = None  # the static cells' one demand, built at the first of them
        # a cell reads alpha only through the replica-class sizes, and the
        # schemes outside RANKED not at all: measure each distinct cell once
        cells: dict[tuple, dict] = {}
        for alpha in plan.alphas:
            policy = ReplicationPolicy(alpha, plan.buffer_items, plan.catalog_size)
            sizes = (policy.common_class_size, policy.unique_class_size)
            for scheme in plan.schemes:
                key = (scheme, sizes if scheme in RANKED else None)
                measured = cells.get(key)
                if measured is None:
                    scores = (centrality_for("cbc", topology, cache, roles, policy)
                              if scheme == "cbc" else classic.get(scheme))
                    assignment = assignment_for(scheme, scores, roles.providers,
                                                policy)
                    if demand is None and scheme != "lru_social_unaware":
                        demand = Demand(cache, roles.consumers, workload)
                    measured = cells[key] = simulate(topology, assignment, roles,
                                                     workload, cache, demand)
                rows.append({"topology": label, "scheme": scheme,
                             "alpha": alpha, "repetition": rep,
                             "seed": workload.seed, **measured})
    return rows


def run_experiment(plan: ExperimentPlan) -> ResultTable:
    """Run every (topology, scheme, alpha, repetition) cell and aggregate.

    Topologies are independent jobs; with ``plan.workers`` > 1 they execute in
    a process pool, and rows are merged in topology order so the output bytes
    never depend on the worker count.
    """
    indices = range(len(plan.topologies))
    if plan.workers > 1 and len(plan.topologies) > 1:
        # imported here: a serial run never loads the multiprocessing modules
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(plan.workers, len(indices))) as pool:
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
                for stat, fn in (("mean", fmean), ("stddev", _stddev)):
                    aggregates.append({
                        "topology": label, "scheme": scheme, "alpha": alpha,
                        "repetition": stat, "seed": "",
                        **{k: fn([r[k] for r in members]) for k in _METRICS}})
    return ResultTable(rows=rows, aggregates=aggregates)


def _format_value(key, value):
    if key in ("topology", "scheme", "repetition", "seed") or isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def table_to_csv(table: ResultTable) -> str:
    """Header and rows, quoting only a field that needs it (a topology label
    with a comma), so other tables keep their plain bytes."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_format_value(k, row[k]) for k in CSV_COLUMNS]
                     for row in table.rows + table.aggregates)
    return buffer.getvalue()


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


def _axes(table: ResultTable) -> tuple[list, list, list]:
    """Topologies, schemes and alphas in first-seen row order."""
    return tuple(list(dict.fromkeys(r[k] for r in table.rows))
                 for k in ("topology", "scheme", "alpha"))


def summary_text(table: ResultTable) -> str:
    """Plain-text scheme x topology matrices of mean hit rate and success
    rate, with one sub-row per replication ratio."""
    topologies, schemes, alphas = _axes(table)
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
    """Write results.csv and summary.txt (plus optional gnuplot .dat files,
    named after the topology label with '/' as '_') under ``destination``;
    labels that share a .dat name are rejected before any file is written."""
    topologies, schemes, alphas = _axes(table)
    dat_labels: dict[str, str] = {}
    for topology in topologies if gnuplot else ():
        other = dat_labels.setdefault(topology.replace("/", "_"), topology)
        if other != topology:
            raise ValueError(f"topologies {other!r} and {topology!r} share "
                             "the gnuplot file names")
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)
    written = [dest / "results.csv", dest / "summary.txt"]
    written[0].write_text(table_to_csv(table))
    written[1].write_text(summary_text(table))
    if gnuplot:
        means = _means(table)
        for metric in ("hit_rate", "success_rate"):
            for name, topology in dat_labels.items():
                path = dest / f"{metric}_{name}.dat"
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


def _knob(key: str, text: str) -> tuple[str, object]:
    """(ExperimentPlan field, value parsed from ``text``) of config ``key``."""
    field, parse = KNOBS[key]
    try:
        return field, parse(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid value {text!r}") from None


def plan_from_config(config: dict, base_dir=".") -> tuple[ExperimentPlan, str]:
    """Build a plan from config text values, resolving topology files
    relative to ``base_dir``; ``topologies`` is comma-separated text or a
    list of paths, and no key may be empty.  Returns (plan, output_dir)."""
    knobs = dict(_knob(key, config[key]) for key in KNOBS if key in config)
    output_dir = str(config.get("output_dir", "results"))
    if not output_dir.strip():  # it would name the working directory
        raise ValueError("config key 'output_dir': empty path")
    paths = config.get("topologies", [])
    if isinstance(paths, str):
        paths = [item.strip() for item in paths.split(",")]
    if not all(str(path).strip() for path in paths):
        raise ValueError("config key 'topologies': empty path")
    # a file is labelled by its stem, or by its path as given when the
    # stem is shared with another file of the plan
    stems = [Path(path).stem for path in paths]
    topologies = tuple((stem if stems.count(stem) == 1 else path,
                        load_topology((Path(base_dir) / path).read_text()))
                       for path, stem in zip(paths, stems))
    plan = (ExperimentPlan(topologies, **knobs) if topologies
            else default_plan(**knobs))
    return plan, output_dir
