import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from fogcache import graph
from fogcache.catalog import InterestWorkload, generate_interests, zipf_catalog
from fogcache.graph import PathCache, from_edges
from fogcache.placement import CacheAssignment, place_greedy_popular
from fogcache.simulator import (RoleAssignment, assign_roles, cache_hit_rate,
                                pooled_hit_rate, route_interest,
                                run_simulation, success_rate, SimMetrics)
from oracles import naive_simulation, random_edge_set


def line_topology(n, origin=None):
    return from_edges([(i, i + 1) for i in range(n - 1)],
                      origin_spec=n - 1 if origin is None else origin)


def static_assignment(caches, buffer_items=10):
    return CacheAssignment(scheme="static", common_parts={},
                           unique_parts={v: tuple(items) for v, items in caches.items()},
                           fog=tuple(sorted(caches)), alpha=None,
                           buffer_items=buffer_items)


def roles_of(consumers, providers, passive=(), seed=0):
    return RoleAssignment(consumers=tuple(consumers), providers=tuple(providers),
                          passive=tuple(passive), seed=seed)


def workload_of(draws):
    return InterestWorkload(draws=tuple(draws), seed=0)


@st.composite
def simulation_cases(draw):
    """Small random snapshots, roles, placements and draws.  ``split`` cuts
    the graph in two with the origin on the far side of one consumer;
    ``on_consumer`` and ``at_origin`` place an extra cache there."""
    n = draw(st.integers(min_value=3, max_value=9))
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    split = draw(st.booleans())
    on_consumer = draw(st.booleans())
    at_origin = draw(st.booleans())
    edges = random_edge_set(rng, n, rng.choice((0.2, 0.35, 0.5)))
    cut = rng.randrange(1, n)
    if split:
        edges = [(a, b) for a, b in edges if (a < cut) == (b < cut)]
    origin = rng.randrange(cut, n) if split else rng.randrange(n)
    topology = from_edges(edges, nodes=range(n), origin_spec=origin)
    others = [v for v in range(n) if v not in (origin, 0)]
    rng.shuffle(others)
    consumers = sorted({0, *others[:rng.randrange(len(others) + 1)]})
    providers = sorted(v for v in range(n)
                       if v not in consumers and v != origin and rng.random() < 0.7)
    catalog_size = rng.randint(1, 6)
    capacity = rng.randint(1, 3)
    caches = {v: tuple(sorted(rng.sample(range(catalog_size),
                                         rng.randint(0, min(capacity, catalog_size)))))
              for v in providers}
    if on_consumer:
        caches[0] = (rng.randrange(catalog_size),)
    if at_origin:
        caches[origin] = (rng.randrange(catalog_size),)
    draws = [(rng.choice(consumers), rng.randrange(catalog_size))
             for _ in range(rng.randint(0, 40))]
    return topology, caches, consumers, providers, capacity, draws


class TestAssignRoles:
    def test_all_passive(self):
        topo = line_topology(6)
        roles = assign_roles(topo, 0.0, 0.0, seed=1)
        assert roles.consumers == () and roles.providers == ()
        assert len(roles.passive) == 5  # origin takes no role

    def test_all_consumers(self):
        topo = line_topology(6)
        roles = assign_roles(topo, 1.0, 0.0, seed=1)
        assert set(roles.consumers) == set(range(5))

    def test_sizes_deterministic_partitions_differ(self):
        rng = random.Random(3)
        topo = from_edges(random_edge_set(rng, 10, 0.4), nodes=range(10))
        a = assign_roles(topo, 0.3, 0.3, seed=1)
        b = assign_roles(topo, 0.3, 0.3, seed=2)
        for roles in (a, b):
            assert len(roles.consumers) == 3 and len(roles.providers) == 3
            assert not set(roles.consumers) & set(roles.providers)
            assert topo.origin not in set(roles.consumers) | set(roles.providers)
        assert (a.consumers, a.providers) != (b.consumers, b.providers)
        assert a == assign_roles(topo, 0.3, 0.3, seed=1)

    def test_overfull_fractions_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            assign_roles(line_topology(4), 0.7, 0.7, seed=0)


class TestRouteInterest:
    def test_served_by_adjacent_cache(self):
        topo = line_topology(3)
        outcome = route_interest(topo, {1: {0}}, 0, 0)
        assert outcome.served_from == "cache"
        assert outcome.server == 1
        assert outcome.path == (0, 1)

    def test_served_by_origin_with_forward(self):
        topo = line_topology(3)
        outcome = route_interest(topo, {}, 0, 0)
        assert outcome.served_from == "origin"
        assert outcome.server == 2
        assert outcome.path == (0, 1, 2)

    def test_self_served(self):
        topo = line_topology(3)
        outcome = route_interest(topo, {0: {4}}, 0, 4)
        assert outcome.served_from == "self"
        assert outcome.path == ()

    def test_unreachable(self):
        topo = from_edges([(0, 1), (2, 3)], origin_spec=3)
        outcome = route_interest(topo, {}, 0, 0)
        assert outcome.served_from == "none"
        assert outcome.server is None

    def test_nearest_holder_tie_smaller_id(self):
        # consumer 2 sits between holders 1 and 3 at distance 1
        topo = from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], origin_spec=4)
        outcome = route_interest(topo, {1: {0}, 3: {0}}, 2, 0)
        assert outcome.server == 1

    def test_next_hop_tie_smallest_id(self):
        # two equal-length routes 0-1-3 and 0-2-3; the 1-branch wins
        topo = from_edges([(0, 1), (0, 2), (1, 3), (2, 3)], origin_spec=3)
        outcome = route_interest(topo, {}, 0, 0)
        assert outcome.path == (0, 1, 3)

    def test_invalid_item(self):
        with pytest.raises(ValueError, match="item"):
            route_interest(line_topology(3), {}, 0, -1)


class TestRunSimulation:
    def test_empty_workload_zero_metrics(self):
        topo = line_topology(3)
        metrics = run_simulation(topo, static_assignment({}), roles_of([0], [1]),
                                 workload_of([]))
        assert metrics.interests_generated == 0
        assert cache_hit_rate(metrics) == 0.0
        assert success_rate(metrics) == 0.0

    def test_adjacent_full_provider_all_hits(self):
        topo = line_topology(3)
        catalog = zipf_catalog(5)
        assignment = static_assignment({1: range(5)})
        workload = generate_interests(catalog, [0], 200, seed=4)
        metrics = run_simulation(topo, assignment, roles_of([0], [1]), workload)
        assert cache_hit_rate(metrics) == 1.0
        assert metrics.unsatisfied == 0
        assert metrics.satisfied_from_cache == 200

    def test_lru_thrash_hand_trace(self):
        # provider 1 with capacity 1 between consumer 0 and origin 2:
        # x0 miss+insert, x1 miss evicts x0, x0 misses again
        topo = line_topology(3)
        assignment = static_assignment({1: ()}, buffer_items=1)
        workload = workload_of([(0, 0), (0, 1), (0, 0)])
        metrics = run_simulation(topo, assignment, roles_of([0], [1]), workload,
                                 lru_enabled=True)
        assert metrics.satisfied_from_cache == 0
        assert metrics.satisfied_from_origin == 3

    def test_lru_insertion_serves_repeat(self):
        topo = line_topology(3)
        assignment = static_assignment({1: ()}, buffer_items=2)
        workload = workload_of([(0, 0), (0, 0)])
        metrics = run_simulation(topo, assignment, roles_of([0], [1]), workload,
                                 lru_enabled=True)
        assert metrics.satisfied_from_origin == 1
        assert metrics.satisfied_from_cache == 1

    def test_lru_big_capacity_second_pass_hits(self):
        topo = line_topology(4)
        catalog = zipf_catalog(6)
        assignment = place_greedy_popular(catalog, [1, 2], 6)
        draws = [(0, r) for r in range(6)] * 2
        metrics = run_simulation(topo, assignment, roles_of([0], [1, 2]),
                                 workload_of(draws), lru_enabled=True)
        # capacity >= catalog: everything seen once is cached on-path
        assert metrics.satisfied_from_cache == 12

    def test_conservation_with_disconnection(self):
        topo = from_edges([(0, 1), (2, 3)], origin_spec=3)
        workload = workload_of([(0, 0), (0, 1), (2, 0)])
        metrics = run_simulation(topo, static_assignment({1: {0}}),
                                 roles_of([0, 2], [1]), workload)
        # consumer 0 cannot reach the origin, so its item-1 interest dies;
        # its item-0 interest hits provider 1, and consumer 2 reaches origin 3
        assert metrics.unsatisfied == 1
        assert metrics.satisfied_from_cache == 1
        assert metrics.satisfied_from_origin == 1
        assert (metrics.satisfied_from_cache + metrics.satisfied_from_origin +
                metrics.satisfied_self + metrics.unsatisfied ==
                metrics.interests_generated)

    def test_connected_always_satisfied(self):
        rng = random.Random(7)
        for seed in range(10):
            topo = line_topology(6)
            catalog = zipf_catalog(8)
            workload = generate_interests(catalog, [0, 2], 300, seed=seed)
            metrics = run_simulation(topo, static_assignment({3: {1, 2}}),
                                     roles_of([0, 2], [3]), workload)
            assert metrics.unsatisfied == 0
            assert success_rate(metrics) == 1.0

    def test_deterministic(self):
        topo = line_topology(8)
        catalog = zipf_catalog(12)
        assignment = place_greedy_popular(catalog, [2, 4], 3)
        workload = generate_interests(catalog, [0, 1], 500, seed=6)
        runs = [run_simulation(topo, assignment, roles_of([0, 1], [2, 4]),
                               workload, lru_enabled=True) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_monotone_in_cache_contents(self):
        topo = line_topology(8)
        catalog = zipf_catalog(12)
        workload = generate_interests(catalog, [0, 1], 500, seed=6)
        roles = roles_of([0, 1], [2, 4])
        base = run_simulation(topo, static_assignment({2: {0}, 4: ()}), roles,
                              workload)
        more = run_simulation(topo, static_assignment({2: {0, 1}, 4: {2}}),
                              roles, workload)
        assert more.satisfied_from_cache >= base.satisfied_from_cache

    @pytest.mark.parametrize("lru", [False, True])
    def test_negative_item_rejected(self, lru):
        with pytest.raises(ValueError, match="invalid item rank -1"):
            run_simulation(line_topology(3), static_assignment({}),
                           roles_of([0], [1]), workload_of([(0, -1)]),
                           lru_enabled=lru)

    @pytest.mark.parametrize("lru", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(case=simulation_cases())
    def test_matches_naive_oracle(self, lru, case):
        topology, caches, consumers, providers, capacity, draws = case
        metrics = run_simulation(topology, static_assignment(caches, capacity),
                                 roles_of(consumers, providers),
                                 workload_of(draws), lru_enabled=lru)
        expected = naive_simulation(topology, caches, set(providers), draws,
                                    capacity, lru)
        assert dataclasses.asdict(metrics) == {"providers": tuple(providers),
                                               **expected}

    def test_workload_consumer_outside_roles_rejected(self):
        topo = line_topology(3)
        with pytest.raises(ValueError, match="consumer role"):
            run_simulation(topo, static_assignment({}), roles_of([0], [1]),
                           workload_of([(1, 0)]))


class TestPathCacheReuse:
    def cell(self):
        rng = random.Random(0)
        topo = from_edges(random_edge_set(rng, 14, 0.2), nodes=range(14),
                          origin_spec=13)
        roles = assign_roles(topo, 0.4, 0.4, seed=2)
        catalog = zipf_catalog(8)
        assignment = place_greedy_popular(catalog, roles.providers, 2)
        workload = generate_interests(catalog, roles.consumers, 300, seed=3)
        return topo, assignment, roles, workload

    def count_bfs(self, monkeypatch):
        sources = []
        bfs = graph.bfs_shortest_paths
        monkeypatch.setattr(graph, "bfs_shortest_paths",
                            lambda topo, s: sources.append(s) or bfs(topo, s))
        return sources

    def test_bfs_once_per_routed_consumer_and_server(self, monkeypatch):
        # the same sources as hop-by-hop routing: each consumer that looks
        # for a holder and each server it routes to
        topo, assignment, roles, workload = self.cell()
        caches = {v: assignment.items_at(v) for v in assignment.nodes()}
        routed = [(c, route_interest(topo, caches, c, item))
                  for c, item in set(workload.draws)]
        expected = ({c for c, o in routed if o.served_from != "self"} |
                    {o.server for c, o in routed if o.path})
        assert {o.served_from for _, o in routed} == {"cache", "origin", "none"}
        sources = self.count_bfs(monkeypatch)
        run_simulation(topo, assignment, roles, workload, path_cache=PathCache(topo))
        assert sorted(sources) == sorted(expected)

    def test_second_run_builds_nothing(self, monkeypatch):
        topo, assignment, roles, workload = self.cell()
        cache = PathCache(topo)
        first = [run_simulation(topo, assignment, roles, workload, lru, cache)
                 for lru in (False, True)]
        hops = dict(cache._hops)
        sources = self.count_bfs(monkeypatch)
        again = [run_simulation(topo, assignment, roles, workload, lru, cache)
                 for lru in (False, True)]
        assert again == first
        assert sources == []
        assert cache._hops.keys() == hops.keys()
        assert all(cache._hops[t] is hops[t] for t in hops)


class TestMetrics:
    def make(self, received, responses, providers):
        n = len(received)
        return SimMetrics(providers=providers, interests_received=list(received),
                          cache_responses=list(responses), forwards=[0] * n,
                          interests_generated=10, satisfied_from_origin=10)

    def test_hit_rate_single_provider(self):
        metrics = self.make([10, 0], [5, 0], providers=(0,))
        assert cache_hit_rate(metrics) == 0.5

    def test_hit_rate_mean_of_node_ratios(self):
        metrics = self.make([10, 10], [10, 0], providers=(0, 1))
        assert cache_hit_rate(metrics) == 0.5
        assert pooled_hit_rate(metrics) == 0.5

    def test_hit_rate_no_traffic(self):
        metrics = self.make([0, 0], [0, 0], providers=(0, 1))
        assert cache_hit_rate(metrics) == 0.0

    def test_success_rate_examples(self):
        topo = from_edges([(0, 1), (2, 3)], origin_spec=1)
        metrics = run_simulation(topo, static_assignment({}),
                                 roles_of([0, 2], []),
                                 workload_of([(0, 0)] * 7 + [(2, 0)] * 3))
        assert success_rate(metrics) == 0.7

    def test_success_rate_zero_generated(self):
        metrics = self.make([0], [0], providers=(0,))
        metrics.interests_generated = 0
        metrics.satisfied_from_origin = 0
        assert success_rate(metrics) == 0.0
