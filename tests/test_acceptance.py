"""End-to-end acceptance checks.

Each test exercises one release criterion and prints a single PASS/FAIL line
(written past pytest's capture so the verdicts always appear on the console).
The comparative-trend checks share one full default-plan experiment run.
"""
import hashlib
import random
import time

import pytest

from fogcache.catalog import generate_interests, zipf_catalog, zipf_popularity
from fogcache.centrality import (ReplicationPolicy, betweenness_centrality,
                                 cbc_exact, cbc_replication,
                                 concretize_classes)
from fogcache.experiment import (ExperimentPlan, default_plan, mean_metric,
                                 run_experiment, table_to_csv)
from fogcache.graph import from_edges
from fogcache.placement import fog_distinct_items, place_fog
from fogcache.simulator import assign_roles, run_simulation
from fogcache.synthetic import generate_synthetic_topology
from oracles import naive_betweenness, naive_cbc, random_edge_set

TOPOLOGY_LABELS = ("topology1", "topology2", "topology3")
ALPHAS = (0.25, 0.5, 0.75)
MID_ALPHA = 0.5  # the sweep's best replication factor, used for comparisons


def _report(capsys, criterion: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] criterion {criterion}: {verdict} — {detail}",
              flush=True)


def _random_topology(rng, max_nodes=8):
    n = rng.randint(2, max_nodes)
    return from_edges(random_edge_set(rng, n), nodes=range(n))


@pytest.fixture(scope="module")
def default_results():
    """One full default experiment (pure function of the default master seed),
    shared by the trend criteria."""
    plan = default_plan()
    start = time.perf_counter()
    table = run_experiment(plan)
    elapsed = time.perf_counter() - start
    return plan, table, elapsed


def test_criterion_1_betweenness_matches_bruteforce(capsys):
    start = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    for _ in range(100):
        topo = _random_topology(rng)
        fast = betweenness_centrality(topo).raw
        slow = naive_betweenness(topo)
        worst = max(worst, max(abs(a - b) for a, b in zip(fast, slow)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _report(capsys, "1", ok, f"betweenness vs enumeration on 100 graphs, "
                     f"max |err| {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_2_cbc_matches_bruteforce(capsys):
    start = time.perf_counter()
    rng = random.Random(202)
    worst_exact = 0.0
    for _ in range(100):
        topo = _random_topology(rng)
        n = topo.node_count
        catalog = rng.randint(1, 5)
        consumers = [v for v in range(n) if rng.random() < 0.5]
        placement = {v: {x for x in range(catalog) if rng.random() < 0.3}
                     for v in range(n) if rng.random() < 0.5}
        fast = cbc_exact(topo, consumers, placement, catalog).raw
        slow = naive_cbc(topo, consumers, placement, catalog)
        worst_exact = max(worst_exact,
                          max(abs(a - b) for a, b in zip(fast, slow)))
    worst_repl = 0.0
    for _ in range(50):
        topo = _random_topology(rng)
        n = topo.node_count
        catalog = rng.randint(2, 8)
        policy = ReplicationPolicy(alpha=rng.choice([0.0, 0.25, 0.5, 1.0]),
                                   buffer_items=rng.randint(1, catalog),
                                   catalog_size=catalog)
        caching = [v for v in range(n) if rng.random() < 0.4]
        rng.shuffle(caching)
        consumers = [v for v in range(n) if rng.random() < 0.5]
        repl = cbc_replication(topo, consumers, policy, caching).raw
        exact = cbc_exact(topo, consumers,
                          concretize_classes(policy, caching), catalog).raw
        worst_repl = max(worst_repl,
                         max(abs(a - b) for a, b in zip(repl, exact)))
    elapsed = time.perf_counter() - start
    ok = worst_exact < 1e-9 and worst_repl < 1e-9 and elapsed < 30.0
    _report(capsys, "2", ok, f"cbc_exact |err| {worst_exact:.2e} (100 instances), "
                     f"cbc_replication |err| {worst_repl:.2e} (50), "
                     f"{elapsed:.1f}s")
    assert worst_exact < 1e-9
    assert worst_repl < 1e-9
    assert elapsed < 30.0


def test_criterion_3_hit_rate_ordering(default_results, capsys):
    _, table, elapsed = default_results
    ordered = 0
    ratios = []
    for label in TOPOLOGY_LABELS:
        hit = {s: mean_metric(table, label, s, MID_ALPHA)
               for s in ("cbc", "betweenness", "no_fog", "lru_social_unaware")}
        if (hit["cbc"] > hit["betweenness"] > hit["no_fog"]
                > hit["lru_social_unaware"]):
            ordered += 1
        ratios.append(hit["cbc"] / hit["lru_social_unaware"])
    ok = ordered >= 2 and all(r >= 2.0 for r in ratios) and elapsed < 300.0
    _report(capsys, "3", ok, f"cbc > betweenness > no_fog > lru on {ordered}/3 "
                     f"topologies, cbc/lru ratios "
                     f"{', '.join(f'{r:.2f}' for r in ratios)}, "
                     f"experiment {elapsed:.0f}s")
    assert ordered >= 2
    assert all(r >= 2.0 for r in ratios)
    assert elapsed < 300.0


def test_criterion_4_alpha_sweep_peak(default_results, capsys):
    _, table, _ = default_results
    peaked = 0
    shapes = []
    for label in TOPOLOGY_LABELS:
        by_alpha = {a: mean_metric(table, label, "cbc", a) for a in ALPHAS}
        if by_alpha[0.5] >= by_alpha[0.25] and by_alpha[0.5] >= by_alpha[0.75]:
            peaked += 1
        shapes.append("/".join(f"{by_alpha[a]:.3f}" for a in ALPHAS))
    ok = peaked >= 2
    _report(capsys, "4", ok, f"cbc hit rate peaks at alpha=0.5 on {peaked}/3 "
                     f"topologies ({'; '.join(shapes)})")
    assert peaked >= 2


def test_criterion_5_success_rate_ordering(default_results, capsys):
    _, table, _ = default_results
    strictly_better = 0
    values = []
    for label in TOPOLOGY_LABELS:
        rate = {s: mean_metric(table, label, s, MID_ALPHA, "success_rate")
                for s in ("cbc", "no_fog", "lru_social_unaware")}
        if (rate["cbc"] > rate["no_fog"]
                and rate["cbc"] > rate["lru_social_unaware"]):
            strictly_better += 1
        values.append(rate["cbc"])
    ok = strictly_better == 3
    _report(capsys, "5", ok, f"cbc success rate strictly highest on "
                     f"{strictly_better}/3 topologies "
                     f"(cbc={', '.join(f'{v:.3f}' for v in values)}; on a "
                     f"connected topology every interest reaches the origin, "
                     f"so all schemes tie at 1.0)")
    assert strictly_better == 3, (
        "success rate is 1.0 for every scheme on connected topologies: the "
        "per-interest success definition cannot strictly separate schemes "
        "there; see the README Tests section for the full analysis")


def test_criterion_6_zipf_correctness(capsys):
    sums_ok = all(abs(sum(zipf_popularity(n, 1.0)) - 1.0) <= 1e-12
                  for n in (1, 100, 10**6))
    p = zipf_popularity(100, 1.0)
    ratio_exact = (p[0] / p[1]) == 2.0
    catalog = zipf_catalog(100)
    draws = generate_interests(catalog, [0], 100_000, seed=606).draws
    freq = sum(1 for _, rank in draws if rank == 0) / 100_000
    empirical_ok = abs(freq - p[0]) < 0.01
    ok = sums_ok and ratio_exact and empirical_ok
    _report(capsys, "6", ok, f"popularity sums exact for N in {{1, 100, 1e6}}, "
                     f"p1/p2 == 2, rank-1 empirical {freq:.4f} vs "
                     f"{p[0]:.4f}")
    assert sums_ok
    assert ratio_exact
    assert empirical_ok


def test_criterion_7_placement_structure(capsys):
    from fogcache.centrality import CentralityScores, normalize_minmax
    catalog = zipf_catalog(30)
    checked = 0
    for n_fog in (1, 2, 5, 9):
        for b in (1, 3, 6):
            for alpha in (0.0, 0.25, 0.5, 1.0):
                raw = tuple(float(x) for x in range(n_fog + 1, 0, -1))
                scores = CentralityScores(kind="cbc_replication", raw=raw,
                                          normalized=normalize_minmax(raw))
                assignment = place_fog(scores, list(range(n_fog)),
                                       ReplicationPolicy(alpha, b, catalog.size))
                common = int(alpha * b)
                expected = min(30, common + n_fog * (b - common))
                assert len(fog_distinct_items(assignment)) == expected
                commons = {assignment.common_parts[v] for v in assignment.fog}
                assert len(commons) == 1  # identical common part everywhere
                uniques = [assignment.unique_parts[v] for v in assignment.fog]
                seen = set()
                for part in uniques:
                    assert not (set(part) & seen)
                    seen.update(part)
                checked += 1
    # the 2-node hand trace: A outranks B; b=4, alpha=0.5, 6-item catalog
    scores = CentralityScores(kind="cbc_replication", raw=(2.0, 1.0, 0.0),
                              normalized=normalize_minmax((2.0, 1.0, 0.0)))
    assignment = place_fog(scores, [0, 1], ReplicationPolicy(0.5, 4, 6))
    trace_ok = (assignment.common_parts[0] == (0, 1)
                and assignment.common_parts[1] == (0, 1)
                and assignment.unique_parts[0] == (2, 3)
                and assignment.unique_parts[1] == (4, 5))
    _report(capsys, "7", trace_ok, f"|X_s| formula, common identity and unique "
                           f"disjointness over {checked} parameterisations; "
                           f"2-node hand trace exact")
    assert trace_ok


def test_criterion_8_worker_count_determinism(default_results, capsys):
    plan, table, _ = default_results
    from dataclasses import replace as dc_replace
    parallel_plan = dc_replace(plan, workers=2)
    parallel = run_experiment(parallel_plan)
    identical = table_to_csv(table) == table_to_csv(parallel)
    _report(capsys, "8", identical, "full default experiment CSV byte-identical "
                            "for workers=1 and workers=2")
    assert identical


def test_default_experiment_bytes_pinned(default_results):
    # the seed-7 results.csv the benchmark pins; re-pin both together
    _, table, _ = default_results
    digest = hashlib.sha256(table_to_csv(table).encode()).hexdigest()
    assert digest.startswith("54d7fd840f4b")


def test_lru_experiment_bytes_pinned():
    # the default plan's LRU cells draw only 2 000 interests each; this plan
    # puts most of its time into LRU churn so its bytes pin that path too
    topology = generate_synthetic_topology("geometric", 200, 0.11, 6)
    plan = ExperimentPlan(topologies=(("geometric-n200", topology),),
                          schemes=("lru_social_unaware", "no_fog"),
                          alphas=(0.5,), repetitions=2,
                          interests_per_run=20_000, buffer_items=5,
                          catalog_size=500)
    digest = hashlib.sha256(table_to_csv(run_experiment(plan)).encode()).hexdigest()
    assert digest.startswith("61e946c175ce")


def test_criterion_9_conservation_including_disconnection(capsys):
    # run_simulation asserts conservation internally on every run; exercise
    # it here on a disconnected topology and re-check the partition by hand
    topo = from_edges([(0, 1), (1, 2), (3, 4)], origin_spec=4)
    catalog = zipf_catalog(6)
    roles = assign_roles(topo, 0.4, 0.2, seed=909)
    cases = 0
    ok = True
    for seed in range(5):
        workload = generate_interests(catalog, roles.consumers, 200, seed=seed)
        from fogcache.placement import place_greedy_popular
        assignment = place_greedy_popular(roles.providers,
                                          ReplicationPolicy(0.0, 2, catalog.size))
        metrics = run_simulation(topo, assignment, roles, workload)
        total = (metrics.satisfied_from_cache + metrics.satisfied_from_origin
                 + metrics.satisfied_self + metrics.unsatisfied)
        ok = ok and total == metrics.interests_generated == 200
        ok = ok and metrics.unsatisfied > 0  # origin unreachable from 0..2
        cases += 1
    _report(capsys, "9", ok, f"generated = cache + origin + self + unsatisfied on "
                     f"{cases} disconnected-topology runs (and asserted "
                     f"inside every simulation)")
    assert ok
