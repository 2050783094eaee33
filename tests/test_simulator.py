import dataclasses
import gc
import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fogcache.catalog import InterestWorkload, generate_interests, zipf_catalog
from fogcache.centrality import CentralityScores, ReplicationPolicy, cbc_exact
from fogcache.graph import UNREACHABLE, PathCache, from_edges
from fogcache.placement import (CacheAssignment, place_fog, place_greedy_popular,
                                place_noncollaborative)
from fogcache.simulator import (RoleAssignment, assign_roles, cache_hit_rate,
                                pooled_hit_rate, run_simulation, success_rate,
                                SimMetrics)
from fogcache.synthetic import generate_synthetic_topology
from oracles import naive_simulation, plain_bfs_dist, random_edge_set


def line_topology(n, origin=None):
    return from_edges([(i, i + 1) for i in range(n - 1)],
                      origin_spec=n - 1 if origin is None else origin)


def static_assignment(caches, buffer_items=10):
    return CacheAssignment(scheme="static", common_parts={},
                           unique_parts={v: tuple(items) for v, items in caches.items()},
                           fog=tuple(sorted(caches)), buffer_items=buffer_items)


def roles_of(consumers, providers, passive=(), seed=0):
    return RoleAssignment(consumers=tuple(consumers), providers=tuple(providers),
                          passive=tuple(passive), seed=seed)


def workload_of(draws):
    return InterestWorkload(draws=tuple(draws), seed=0)


@st.composite
def simulation_cases(draw, churn=False):
    """Small random snapshots, roles, placements and draws.  ``split`` cuts
    the graph in two with the origin on the far side of one consumer;
    ``on_consumer`` and ``at_origin`` place an extra cache there.  ``churn``
    draws long workloads over at most three items and one- or two-item
    caches, so each (consumer, server) route recurs while the contents of
    its providers change."""
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
    catalog_size = rng.randint(1, 3 if churn else 6)
    capacity = rng.randint(1, 2 if churn else 3)
    caches = {v: tuple(sorted(rng.sample(range(catalog_size),
                                         rng.randint(0, min(capacity, catalog_size)))))
              for v in providers}
    if on_consumer:
        caches[0] = (rng.randrange(catalog_size),)
    if at_origin:
        caches[origin] = (rng.randrange(catalog_size),)
    draws = [(rng.choice(consumers), rng.randrange(catalog_size))
             for _ in range(rng.randint(*((60, 300) if churn else (0, 40))))]
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
    """One-interest static runs: where the interest is served and which
    nodes forward it."""

    def route(self, topo, caches, consumer, item):
        return run_simulation(topo, static_assignment(caches),
                              roles_of([consumer], sorted(caches)),
                              workload_of([(consumer, item)]))

    def served(self, metrics):
        return (metrics.satisfied_self, metrics.satisfied_from_cache,
                metrics.satisfied_from_origin, metrics.unsatisfied)

    def test_served_by_adjacent_cache(self):
        metrics = self.route(line_topology(3), {1: {0}}, 0, 0)
        assert self.served(metrics) == (0, 1, 0, 0)
        assert metrics.cache_responses == [0, 1, 0]
        assert metrics.forwards == [0, 0, 0]

    def test_served_by_origin_with_forward(self):
        metrics = self.route(line_topology(3), {}, 0, 0)
        assert self.served(metrics) == (0, 0, 1, 0)
        assert metrics.cache_responses == [0, 0, 0]
        assert metrics.forwards == [0, 1, 0]

    def test_self_served(self):
        metrics = self.route(line_topology(3), {0: {4}}, 0, 4)
        assert self.served(metrics) == (1, 0, 0, 0)
        assert metrics.cache_responses == [0, 0, 0]
        assert metrics.forwards == [0, 0, 0]

    def test_unreachable(self):
        topo = from_edges([(0, 1), (2, 3)], origin_spec=3)
        metrics = self.route(topo, {}, 0, 0)
        assert self.served(metrics) == (0, 0, 0, 1)
        assert metrics.cache_responses == [0, 0, 0, 0]
        assert metrics.forwards == [0, 0, 0, 0]

    def test_nearest_holder_tie_smaller_id(self):
        # consumer 2 sits between holders 1 and 3 at distance 1
        topo = from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], origin_spec=4)
        metrics = self.route(topo, {1: {0}, 3: {0}}, 2, 0)
        assert self.served(metrics) == (0, 1, 0, 0)
        assert metrics.cache_responses == [0, 1, 0, 0, 0]
        assert metrics.forwards == [0, 0, 0, 0, 0]

    def test_next_hop_tie_smallest_id(self):
        # two equal-length routes 0-1-3 and 0-2-3; the 1-branch wins
        topo = from_edges([(0, 1), (0, 2), (1, 3), (2, 3)], origin_spec=3)
        metrics = self.route(topo, {}, 0, 0)
        assert self.served(metrics) == (0, 0, 1, 0)
        assert metrics.cache_responses == [0, 0, 0, 0]
        assert metrics.forwards == [0, 1, 0, 0]


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
        assignment = place_greedy_popular([1, 2],
                                          ReplicationPolicy(0.0, 6, catalog.size))
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
        assignment = place_greedy_popular([2, 4],
                                          ReplicationPolicy(0.0, 3, catalog.size))
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
    @pytest.mark.parametrize("rank", [2 ** 63, 2 ** 64, -2 ** 63 - 1])
    def test_rank_outside_int64_rejected(self, lru, rank):
        # both branches take ranks in [0, 2^63): a static run packs the
        # draws as int64, and an LRU run rejects what a static one cannot
        # route
        with pytest.raises(ValueError, match=f"invalid item rank {rank}$"):
            run_simulation(line_topology(3), static_assignment({}),
                           roles_of([0], [1]),
                           workload_of([(0, 0), (0, rank), (0, 1)]),
                           lru_enabled=lru)

    @pytest.mark.parametrize("lru", [False, True])
    @pytest.mark.parametrize("bad", [-2, 4])
    def test_assignment_node_outside_topology_rejected(self, lru, bad):
        # rejected before any route is read: as an index, -2 would read the
        # distance of node 2
        assignment = place_noncollaborative([bad], ReplicationPolicy(0.5, 2, 10))
        with mock.patch.object(PathCache, "dist_from", side_effect=AssertionError), \
                pytest.raises(ValueError, match=f"assignment references unknown node {bad}"):
            run_simulation(line_topology(4), assignment, roles_of([0], [1]),
                           workload_of([(0, 0)]), lru_enabled=lru)

    @pytest.mark.parametrize("lru", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(case=simulation_cases())
    def test_matches_naive_oracle(self, lru, case):
        self.check_against_oracle(lru, case)

    @pytest.mark.parametrize("lru", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(case=simulation_cases(churn=True))
    def test_matches_naive_oracle_under_churn(self, lru, case):
        self.check_against_oracle(lru, case)

    @pytest.mark.parametrize("lru", [False, True])
    @pytest.mark.parametrize("shape", ["line300", "tail200"])
    def test_matches_naive_oracle_past_int8(self, lru, shape):
        # more than 128 nodes and 127 hop levels: routing reads int16
        # distance rows and next-hop trees, which simulation_cases never builds
        rng = random.Random(23)
        if shape == "line300":
            topology = line_topology(300)
        else:  # a random 60-node core with a 140-node path tail
            edges = random_edge_set(rng, 60, 0.08) + [(v, v + 1) for v in range(59, 199)]
            topology = from_edges(edges, origin_spec=0)
        others = [v for v in range(topology.node_count) if v != topology.origin]
        rng.shuffle(others)
        consumers, providers = sorted(others[:40]), sorted(others[40:120])
        caches = {v: tuple(rng.sample(range(4), rng.randint(0, 2))) for v in providers}
        draws = [(rng.choice(consumers), rng.randrange(4)) for _ in range(400)]
        cache = PathCache(topology)
        with mock.patch.object(PathCache, "next_hops", autospec=True,
                               side_effect=PathCache.next_hops) as next_hops:
            self.check_against_oracle(lru, (topology, caches, consumers, providers, 2,
                                             draws), cache)
        servers = {call.args[1] for call in next_hops.call_args_list}
        assert 2 in {cache.dist_from(c).itemsize for c in consumers}
        assert {cache.next_hops(t).itemsize for t in servers} == {2}

    @pytest.mark.parametrize("lru", [False, True])
    @pytest.mark.parametrize("tail, fmt", [(0, "b"), (140, "h")], ids=["int8", "int16"])
    def test_matches_naive_oracle_with_unreachable_holders(self, lru, tail, fmt):
        # the origin's part (a 40-node core with a path tail), a second part
        # of 40 nodes and ten isolated nodes, with consumers and caches in
        # each: holders in another part are unreachable, and so is the
        # origin from the second part and the isolated nodes; rows read
        # UNREACHABLE as the largest unsigned value in either dtype
        rng = random.Random(31)
        edges = random_edge_set(rng, 40, 0.1) + [(v, v + 1) for v in range(39, 39 + tail)]
        second = 40 + tail
        edges += [(second + a, second + b) for a, b in random_edge_set(rng, 40, 0.1)]
        n = second + 50
        topology = from_edges(edges, nodes=range(n), origin_spec=0)
        others = list(range(1, n))
        rng.shuffle(others)
        consumers, providers = sorted(others[:30]), sorted(others[30:90])
        caches = {v: tuple(rng.sample(range(5), rng.randint(0, 2))) for v in providers}
        draws = [(rng.choice(consumers), rng.randrange(5)) for _ in range(600)]
        cache = PathCache(topology)
        self.check_against_oracle(lru, (topology, caches, consumers, providers, 2,
                                         draws), cache)
        assert {cache.dist_from(c).format for c in consumers} == {fmt}
        dists = [cache.dist_from(c) for c in consumers]
        assert any(d[0] == UNREACHABLE for d in dists)
        assert any(d[0] != UNREACHABLE and UNREACHABLE in d.tolist() for d in dists)

    @pytest.mark.parametrize("lru", [False, True])
    @pytest.mark.parametrize("case", ["empty", "rank_past_catalog",
                                      "origin_in_assignment", "origin_consumer",
                                      "self_served"])
    def test_matches_naive_oracle_edge_cases(self, lru, case):
        # a 6-node path with a chord 1-4, origin 5
        topology = from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)],
                              origin_spec=5)
        caches = {2: (0,), 3: (1, 0)}
        consumers, providers = [0, 1], [2, 3]
        draws = [(0, 0), (1, 1), (0, 2), (1, 0), (0, 0)]
        if case == "empty":
            draws = []
        elif case == "rank_past_catalog":
            # served by the origin; a holder list per rank up to this one
            # would not fit in memory
            draws += [(0, 2 ** 62), (1, 2 ** 62), (0, 2 ** 62)]
        elif case == "origin_in_assignment":
            caches[5] = (1, 2)
        elif case == "origin_consumer":  # the origin consumes, and serves itself
            consumers.append(5)
            draws += [(5, 0), (5, 3), (0, 3)]
        else:  # consumer 0 holds the one item it asks for, and the origin 3
            # serves itself, so only consumer 1 routes an interest
            topology, caches = line_topology(4), {0: (0,)}
            consumers, providers = [0, 1, 3], [0]
            draws = [(0, 0), (3, 1), (1, 0), (0, 0)]
        self.check_against_oracle(lru, (topology, caches, consumers, providers, 2,
                                        draws))

    def test_static_run_memory_stays_narrow(self):
        # n = 989, and every provider holds the top ten items, so the top
        # items' holder set spans all 297 providers: one static run traced
        # 2.5 MB with holder ids as narrow as the node ids, and 8.2 MB with
        # int64 ones (numpy 2.4); the bound leaves 60% over the first
        topology = generate_synthetic_topology("geometric", 1000,
                                               0.078 * math.sqrt(0.33), 6)
        roles = assign_roles(topology, 0.3, 0.3, seed=1)
        assignment = place_noncollaborative(roles.providers,
                                            ReplicationPolicy(0.5, 10, 100))
        workload = generate_interests(zipf_catalog(100), roles.consumers, 5000, seed=2)
        cache = PathCache(topology)
        expected = run_simulation(topology, assignment, roles, workload, path_cache=cache)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            metrics = run_simulation(topology, assignment, roles, workload,
                                     path_cache=cache)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert metrics == expected and metrics.satisfied_from_cache > 0
        assert peak < 4_000_000

    @staticmethod
    def check_against_oracle(lru, case, cache=None):
        topology, caches, consumers, providers, capacity, draws = case
        metrics = run_simulation(topology, static_assignment(caches, capacity),
                                 roles_of(consumers, providers),
                                 workload_of(draws), lru_enabled=lru, path_cache=cache)
        expected = naive_simulation(topology, caches, set(providers), draws,
                                    capacity, lru)
        assert dataclasses.asdict(metrics) == {"providers": tuple(providers),
                                               **expected}

    @pytest.mark.parametrize("lru", [False, True])
    def test_cyclic_next_hop_tree_raises(self, lru):
        # a broken tree (say, ids wrapping in too narrow a dtype) fails the
        # run instead of walking forever: 0 -> 1 -> 2 -> 1 -> ... never
        # reaches the origin 3
        class CyclicHops(PathCache):
            def next_hops(self, target):
                return [1, 2, 1, UNREACHABLE]

        topo = line_topology(4)
        with pytest.raises(RuntimeError, match="next hops from consumer 0 miss server 3 after 3 hops"):
            run_simulation(topo, static_assignment({}), roles_of([0], [1]),
                           workload_of([(0, 0)]), lru_enabled=lru,
                           path_cache=CyclicHops(topo))

    @pytest.mark.parametrize("lru", [False, True])
    def test_workload_consumer_outside_roles_rejected(self, lru):
        topo = line_topology(3)
        with pytest.raises(ValueError, match="consumer 1 lacks the consumer role"):
            run_simulation(topo, static_assignment({}), roles_of([0], [1]),
                           workload_of([(1, 0)]), lru_enabled=lru)
        # the first bad draw decides the message
        with pytest.raises(ValueError, match="invalid item rank -1"):
            run_simulation(topo, static_assignment({}), roles_of([0], [1]),
                           workload_of([(0, 0), (0, -1), (1, 0)]),
                           lru_enabled=lru)
        with pytest.raises(ValueError, match="consumer 1 lacks the consumer role"):
            run_simulation(topo, static_assignment({}), roles_of([0], [1]),
                           workload_of([(0, 0), (1, 0), (0, 2 ** 63)]),
                           lru_enabled=lru)


class TestPathCacheReuse:
    def cell(self):
        # 200 nodes in many components: ten consumers, twenty providers
        rng = random.Random(2)
        topo = from_edges(random_edge_set(rng, 200, 0.01), nodes=range(200),
                          origin_spec=199)
        roles = assign_roles(topo, 0.05, 0.1, seed=2)
        catalog = zipf_catalog(8)
        assignment = place_greedy_popular(roles.providers,
                                          ReplicationPolicy(0.0, 2, catalog.size))
        workload = generate_interests(catalog, roles.consumers, 300, seed=3)
        return topo, assignment, roles, workload

    def record(self, monkeypatch, name):
        """The argument of every call to ``PathCache.<name>`` from here on: a
        source, a target, or a batched BFS's block of sources."""
        args = []
        read = getattr(PathCache, name)

        def recorded(cache, arg):
            args.append(arg)
            return read(cache, arg)

        monkeypatch.setattr(PathCache, name, recorded)
        return args

    @pytest.mark.parametrize("lru", [False, True])
    def test_reads_once_per_routed_consumer_and_server(self, monkeypatch, lru):
        # routing runs no BFS: each consumer that looks for a holder reads
        # its distance row once, and each server it routes to its next-hop
        # tree (the servers of a static run; an LRU run's caches change)
        topo, assignment, roles, workload = self.cell()
        holders = assignment.holders_by_item()
        served, consumers, servers = set(), set(), set()
        for c, item in set(workload.draws):
            found = holders.get(item, set()) | {topo.origin}
            if c in found:
                served.add("self")
                continue
            consumers.add(c)
            dist = plain_bfs_dist(topo.adjacency, c)
            reachable = [h for h in found if h in dist]
            if not reachable:
                served.add("none")
                continue
            server = min(reachable, key=lambda h: (dist[h], h))
            served.add("origin" if server == topo.origin else "cache")
            servers.add(server)
        assert served == {"cache", "origin", "none"}
        assert servers - consumers
        blocks = self.record(monkeypatch, "bfs_levels")
        sources = self.record(monkeypatch, "dist_from")
        targets = self.record(monkeypatch, "next_hops")
        run_simulation(topo, assignment, roles, workload, lru, PathCache(topo))
        assert blocks == []
        assert sorted(sources) == sorted(consumers)
        if lru:
            # the origin's tree is read by the insertion walk and by the
            # forward walk, every other server's by the forward walk
            reads = Counter(targets)
            assert reads.pop(topo.origin) == 2 and set(reads.values()) == {1}
        else:
            assert sorted(targets) == sorted(servers)

    def test_second_run_builds_nothing(self, monkeypatch):
        topo, assignment, roles, workload = self.cell()
        cache = PathCache(topo)
        sources = self.record(monkeypatch, "dist_from")
        targets = self.record(monkeypatch, "next_hops")
        first = [run_simulation(topo, assignment, roles, workload, lru, cache)
                 for lru in (False, True)]
        dists = {s: cache.dist_from(s) for s in set(sources)}
        hops = {t: cache.next_hops(t) for t in set(targets)}
        sources.clear()
        targets.clear()
        blocks = self.record(monkeypatch, "bfs_levels")
        again = [run_simulation(topo, assignment, roles, workload, lru, cache)
                 for lru in (False, True)]
        assert again == first
        assert blocks == []
        assert not cache._rows  # no σ or order row either
        # the second run reads the same sources and targets and gets the same
        # views back
        assert set(sources) == dists.keys() and set(targets) == hops.keys()
        assert all(cache.dist_from(s) is dist for s, dist in dists.items())
        assert all(cache.next_hops(t) is tree for t, tree in hops.items())

    @pytest.mark.parametrize("lru", [False, True])
    def test_routing_never_calls_paths_from(self, monkeypatch, lru):
        # routing reads distances and next hops only, never σ or BFS order
        topo, assignment, roles, workload = self.cell()
        expected = run_simulation(topo, assignment, roles, workload, lru)
        monkeypatch.setattr(PathCache, "paths_from",
                            mock.Mock(side_effect=AssertionError))
        assert run_simulation(topo, assignment, roles, workload, lru,
                              PathCache(topo)) == expected


class TestCbcAgreement:
    """CBC scores a node by the consumer -> nearest-holder shortest paths
    through it; a static run forwards each interest along one of them.  When
    each consumer draws each item once, both count d - 1 interior nodes per
    pair served at distance d (CBC's split over equidistant holders sums to
    1), and 0 for self-served and unreachable pairs."""

    CATALOG = 6

    @staticmethod
    def both(topology, assignment, consumers, providers, catalog_size):
        """Per-node forwards of a static run in which each consumer draws
        each item once, and the exact CBC raw scores of its placement."""
        draws = [(c, i) for c in consumers for i in range(catalog_size)]
        metrics = run_simulation(topology, assignment, roles_of(consumers, providers),
                                 workload_of(draws))
        placement = {v: set(assignment.items_at(v)) for v in assignment.nodes()}
        return metrics.forwards, cbc_exact(topology, consumers, placement,
                                           catalog_size).raw

    @settings(max_examples=300, deadline=None)
    @given(case=simulation_cases(), scheme=st.sampled_from(["drawn", "no_fog", "fog"]),
           alpha=st.sampled_from([0.0, 0.5, 1.0]), buffer_items=st.integers(1, 3),
           score_seed=st.integers(0, 1_000))
    def test_forward_total_is_cbc_total(self, case, scheme, alpha, buffer_items,
                                        score_seed):
        # simulation_cases draws disconnected snapshots, an origin out of
        # reach, and caches at a consumer and at the origin
        topology, caches, consumers, providers, capacity, _ = case
        policy = ReplicationPolicy(alpha, buffer_items, self.CATALOG)
        if scheme == "drawn":
            assignment = static_assignment(caches, capacity)
        elif scheme == "no_fog":
            assignment = place_noncollaborative(providers, policy)
        else:  # the fog in the order of random scores
            rng = random.Random(score_seed)
            raw = tuple(float(rng.randrange(3)) for _ in range(topology.node_count))
            assignment = place_fog(CentralityScores("random", raw, raw), providers,
                                   policy)
        forwards, raw = self.both(topology, assignment, consumers, providers,
                                  self.CATALOG)
        assert math.isclose(sum(forwards), math.fsum(raw), rel_tol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 100_000))
    def test_tie_free_trees_agree_per_node(self, n, seed):
        # a tree has one shortest path per pair; an item whose nearest
        # holders tie for some consumer is left at the origin alone, so both
        # layers pick the same holder and path for every pair
        rng = random.Random(seed)
        ids = rng.sample(range(n), n)
        topology = from_edges([(ids[i], ids[rng.randrange(i)]) for i in range(1, n)],
                              origin_spec=rng.randrange(n))
        origin = topology.origin
        others = [v for v in range(n) if v != origin]
        consumers = sorted(rng.sample(others, rng.randint(1, len(others))))
        providers = [v for v in others if v not in consumers and rng.random() < 0.7]
        holding = providers + [c for c in consumers if rng.random() < 0.2]
        caches = {v: set(rng.sample(range(self.CATALOG), rng.randint(0, 3)))
                  for v in holding}
        dists = [plain_bfs_dist(topology.adjacency, c) for c in consumers]
        for item in range(self.CATALOG):
            holders = {v for v, items in caches.items() if item in items} | {origin}
            for dist in dists:
                nearest = sorted(dist[h] for h in holders)
                if nearest[1:2] == nearest[:1]:
                    for items in caches.values():
                        items.discard(item)
                    break
        forwards, raw = self.both(topology, static_assignment(caches), consumers,
                                  sorted(holding), self.CATALOG)
        assert list(raw) == list(map(float, forwards))


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
