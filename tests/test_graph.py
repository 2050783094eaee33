import gc
import json
import random
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fogcache.catalog import InterestWorkload
from fogcache.centrality import (ReplicationPolicy, betweenness_centrality,
                                 cbc_exact, cbc_replication)
from fogcache.experiment import default_topologies
from fogcache.graph import (_BATCH, UNREACHABLE, PathCache, Topology, _arcs,
                            _csr, _distances, bfs_shortest_paths,
                            connected_components, farness, from_edges,
                            load_topology, serialize_topology)
from fogcache.placement import place_noncollaborative
from fogcache.simulator import RoleAssignment, run_simulation
from fogcache.synthetic import generate_synthetic_topology
from oracles import (adjacency_sets, naive_sigma, plain_bfs_dist, python_bfs,
                     random_edge_set)


def small_graphs(max_nodes=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_nodes))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        rng = random.Random(seed)
        edges = random_edge_set(rng, n)
        return from_edges(edges, nodes=range(n))
    return build()


def oracle_preds(topo, source):
    """Shortest-path predecessors of every node, from the oracle BFS: the
    neighbours one hop closer to ``source``."""
    adj = adjacency_sets(topo)
    dist = plain_bfs_dist(adj, source)
    return [sorted(p for p in adj[v] if v in dist and dist.get(p) == dist[v] - 1)
            for v in range(topo.node_count)]


class TestLoadTopology:
    def test_path_graph_with_origin(self):
        topo = load_topology("0 1\n1 2", origin_spec=2)
        assert topo.node_count == 3
        assert topo.adjacency == ((1,), (0, 2), (1,))
        assert topo.origin == 2

    def test_duplicates_and_comments_collapse(self):
        topo = load_topology("0 1\n1 0\n# c\n1 2")
        assert topo.node_count == 3
        assert topo.adjacency == ((1,), (0, 2), (1,))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            load_topology("0 0")

    def test_negative_node_id_rejected(self):
        with pytest.raises(ValueError, match=r"negative node id in edge \(-1, 2\)"):
            from_edges([(-1, 2)])
        with pytest.raises(ValueError, match=r"negative node id in nodes \(-5\)"):
            from_edges([(0, 1)], nodes=[-5])

    # a one-element array reads as false and a longer one has no truth value,
    # so `nodes` is tested against None
    @pytest.mark.parametrize("nodes", [[0], range(1), (0,), np.array([0]),
                                       np.arange(4), np.array([3, 0])],
                             ids=["list", "range", "tuple", "array1", "arange4",
                                  "array2"])
    def test_node_sequences_add_isolated_nodes(self, nodes):
        topo = from_edges([(1, 2)], nodes=nodes)
        ids = sorted({1, 2, *map(int, nodes)})
        assert topo.original_ids == tuple(ids)
        assert topo.adjacency == tuple((ids.index(2),) if v == 1 else
                                       (ids.index(1),) if v == 2 else ()
                                       for v in ids)

    def test_numpy_ids_become_python_ints(self):
        edges = np.array([[1, 2], [2, 5]], dtype=np.int32)
        topo = from_edges(edges, nodes=np.array([0, 7]), origin_spec=np.int64(5))
        assert topo.original_ids == (0, 1, 2, 5, 7)
        assert {type(v) for v in topo.original_ids} == {int}
        assert topo.origin == 3
        assert json.loads(json.dumps(topo.original_ids)) == [0, 1, 2, 5, 7]

    @pytest.mark.parametrize("edges, nodes", [
        ([(1.0, 2)], None), ([(1, 2.5)], None), ([(1, 2)], [0.0]),
        ([(1, 2)], np.array([0.0])), (np.array([[1.0, 2.0]]), None)],
        ids=["tail", "head", "node", "node_array", "edge_array"])
    def test_float_ids_rejected(self, edges, nodes):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            from_edges(edges, nodes=nodes)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            load_topology("0 x")
        with pytest.raises(ValueError, match="two node ids"):
            load_topology("0 1 2")

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            load_topology("# only comments\n")

    def test_unknown_origin_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            load_topology("0 1", origin_spec=9)

    def test_auto_origin_max_degree_smallest_id(self):
        # nodes 1 and 3 both have degree 2; the smaller original id wins
        topo = load_topology("0 1\n1 3\n3 4")
        assert topo.original_ids[topo.origin] == 1

    def test_sparse_original_ids_remapped(self):
        topo = load_topology("10 30\n30 700")
        assert topo.original_ids == (10, 30, 700)
        assert topo.adjacency == ((1,), (0, 2), (1,))

    def test_serialize_roundtrip(self):
        topo = load_topology("5 2\n2 9\n9 5", origin_spec=9)
        text = serialize_topology(topo)
        again = load_topology(text, origin_spec=9)
        assert again == topo
        assert text.splitlines()[0] == "# nodes=3 origin=9"

    @settings(max_examples=50, deadline=None)
    @given(small_graphs(), st.integers(min_value=0, max_value=7))
    def test_serialize_roundtrip_property(self, topo, pick):
        # the edge-list format cannot express isolated nodes; drop them first
        edges = [(topo.original_ids[a], topo.original_ids[b])
                 for a, b in topo.edges()]
        if not edges:
            return
        ids = from_edges(edges).original_ids
        topo = from_edges(edges, origin_spec=ids[pick % len(ids)])
        again = load_topology(serialize_topology(topo),
                              origin_spec=topo.original_ids[topo.origin])
        assert again.adjacency == topo.adjacency
        assert again.origin == topo.origin
        assert load_topology(serialize_topology(topo)) == topo

    def test_header_origin(self):
        text = "# nodes=3 origin=2\n0 1\n1 2\n"
        assert load_topology(text).origin == 2
        assert load_topology(text, origin_spec=0).origin == 0
        # only a '#' first line names the origin
        assert load_topology("0 1\n1 2\n# origin=2\n").origin == 1
        with pytest.raises(ValueError, match="absent"):
            load_topology("# nodes=2 origin=7\n0 1\n")

    def test_bad_header_token_named(self):
        with pytest.raises(ValueError, match="line 1: .*'origin=x'"):
            load_topology("# nodes=2 origin=x\n0 1\n")


class TestFarness:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_nodes=10))
    @example(from_edges([(0, 1), (1, 2), (3, 4)], nodes=range(6)))
    @example(from_edges([], nodes=range(3)))
    def test_matches_plain_bfs(self, topo):
        self.check(topo)

    # the graphs above have at most 10 nodes, so every reach row is one
    # uint64 word and no slot spans the 64 rows that take the in-place OR;
    # the graphs below have rows of several words and take both paths
    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_rows_of_several_words(self, n, seed):
        edges = random_edge_set(random.Random(seed), n, 3 / n)
        self.check(from_edges(edges, nodes=range(n)))

    def test_isolated_nodes_and_a_disconnected_part(self):
        edges = random_edge_set(random.Random(4), 80, 0.05)
        edges += [(v, v + 1) for v in range(100, 140)]
        self.check(from_edges(edges, nodes=range(150)))

    def test_star_with_more_than_64_leaves(self):
        self.check(from_edges([(0, v) for v in range(1, 100)]))

    def test_hub_joined_to_a_path(self):
        # node 150 has degree 100: one end of the path 0..149 and 99 leaves
        edges = [(v, v + 1) for v in range(149)]
        self.check(from_edges(edges + [(150, v) for v in (0, *range(151, 250))]))

    def test_hubs_joined_to_every_leaf(self):
        # 30 hubs with 100 leaves each: the hubs' neighbours beyond the
        # slots are gathered in several runs of under 2n rows
        self.check(from_edges([(h, v) for h in range(30) for v in range(30, 130)]))

    @staticmethod
    def check(topo):
        reached, far = farness(topo)
        assert {type(x) for x in (*reached, *far)} == {int}
        adj = adjacency_sets(topo)
        for v in range(topo.node_count):
            dists = [d for d in plain_bfs_dist(adj, v).values() if d > 0]
            assert (reached[v], far[v]) == (len(dists), sum(dists))


class TestBfsShortestPaths:
    def test_path_graph(self):
        topo = load_topology("0 1\n1 2")
        sp = bfs_shortest_paths(topo, 0)
        assert sp.sigma == (1, 1, 1)
        assert sp.dist == (0, 1, 2)

    def test_cycle_two_routes(self):
        topo = load_topology("0 1\n1 2\n2 3\n3 0")
        sp = bfs_shortest_paths(topo, 0)
        assert sp.sigma[2] == 2

    def test_disconnected(self):
        topo = load_topology("0 1\n2 3")
        sp = bfs_shortest_paths(topo, 0)
        assert sp.sigma[2] == 0
        assert sp.dist[2] == UNREACHABLE

    def test_invalid_source(self):
        topo = load_topology("0 1")
        with pytest.raises(ValueError, match="source"):
            bfs_shortest_paths(topo, 5)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_invalid_batch_source(self, bad):
        with pytest.raises(ValueError, match=f"invalid source id {bad}"):
            PathCache(load_topology("0 1")).bfs_levels([0, bad])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one source"):
            PathCache(load_topology("0 1")).bfs_levels([])

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_sigma_matches_enumeration(self, topo):
        for s in range(topo.node_count):
            sp = bfs_shortest_paths(topo, s)
            assert list(sp.sigma) == naive_sigma(topo, s)
            assert sp == python_bfs(topo, s)

    def test_batch_of_one(self):
        topo = load_topology("0 1\n1 2\n2 3\n3 0")
        with mock.patch.object(PathCache, "bfs_levels", autospec=True,
                               side_effect=PathCache.bfs_levels) as bfs:
            sp = bfs_shortest_paths(topo, 2)
        assert [list(call.args[1]) for call in bfs.call_args_list] == [[2]]
        assert sp == python_bfs(topo, 2)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_predecessor_sum_identity(self, topo):
        for s in range(topo.node_count):
            sp = bfs_shortest_paths(topo, s)
            preds = oracle_preds(topo, s)
            assert sp.sigma[s] == 1 and sp.dist[s] == 0
            for v in range(topo.node_count):
                if v == s or sp.dist[v] == UNREACHABLE:
                    continue
                assert sp.sigma[v] == sum(sp.sigma[p] for p in preds[v])
                assert all(sp.dist[p] == sp.dist[v] - 1 for p in preds[v])


class TestNextHops:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_smallest_predecessor(self, topo):
        cache = PathCache(topo)
        for t in range(topo.node_count):
            assert list(cache.next_hops(t)) == [min(p) if p else UNREACHABLE
                                                for p in oracle_preds(topo, t)]

    def test_memoized_per_target(self):
        cache = PathCache(load_topology("0 1\n1 2\n3 4"))
        hops = cache.next_hops(0)
        assert list(hops) == [UNREACHABLE, 0, 1, UNREACHABLE, UNREACHABLE]
        assert cache.next_hops(0) is hops

    def test_reads_waiting_row_without_building(self):
        # every distance row waits from the cache's build: a tree reads its
        # target's row and runs no BFS, and betweenness replaces no row
        _, topo = default_topologies()[0]
        cache = PathCache(topo)
        targets = range(0, topo.node_count, 9)
        with mock.patch.object(PathCache, "bfs_levels", side_effect=AssertionError):
            dists = {t: cache.dist_from(t) for t in targets}
            hops = {t: cache.next_hops(t) for t in targets}
        betweenness_centrality(topo, cache)
        assert all(cache.dist_from(t) is dists[t] for t in targets)
        assert all(cache.next_hops(t) is hops[t] for t in targets)
        for t in targets:
            assert list(hops[t]) == [min(p) if p else UNREACHABLE
                                     for p in oracle_preds(topo, t)]


class TestPathCacheMiss:
    def test_fills_the_aligned_block(self):
        _, topo = default_topologies()[0]
        n = topo.node_count
        last = n - n % _BATCH  # the short block at the end
        cache = PathCache(topo)
        with mock.patch.object(PathCache, "bfs_levels", autospec=True,
                               side_effect=PathCache.bfs_levels) as bfs:
            for s in (40, 33, 63, n - 1, last, 75):
                expected = python_bfs(topo, s)
                assert cache.paths_from(s) == expected
                assert list(cache.dist_from(s)) == list(expected.dist)
            # every other source of those blocks is a hit now, and distances
            # and next hops run no BFS
            for s in (*range(32, 96), *range(last, n)):
                cache.paths_from(s)
            for s in (0, 1, 100, 200):
                cache.dist_from(s)
                cache.next_hops(s)
        blocks = [list(call.args[1]) for call in bfs.call_args_list]
        assert blocks == [list(range(32, 64)), list(range(last, n)),
                          list(range(64, 96))]

    def test_first_row_wins(self):
        # a miss fills the σ and order rows of its block; betweenness, which
        # covers the block again, keeps them
        _, topo = default_topologies()[0]
        cache = PathCache(topo)
        with mock.patch.object(PathCache, "bfs_levels", autospec=True,
                               side_effect=PathCache.bfs_levels) as bfs:
            cache.paths_from(40)
            rows = {s: cache._rows[s] for s in range(32, 64)}
        assert [list(call.args[1]) for call in bfs.call_args_list] == [list(range(32, 64))]
        betweenness_centrality(topo, cache)
        assert all(cache._rows[s] is row for s, row in rows.items())

    def test_store_keeps_rows_stored_while_it_ran(self):
        # a racing reader stores the block between this store's check for
        # rows and its own writes: the rows stored first stay
        _, topo = default_topologies()[0]
        cache = PathCache(topo)
        unique, raced, calls = np.unique, {}, []

        def race(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                cache.bfs_levels(range(32, 64))
                raced.update(cache._rows)
            return unique(*args, **kwargs)

        with mock.patch.object(np, "unique", side_effect=race):
            cache.bfs_levels(range(32, 64))
        assert len(calls) == 2 and sorted(raced) == list(range(32, 64))
        assert sorted(cache._rows) == list(range(32, 64))
        assert all(cache._rows[s] is raced[s] for s in range(32, 64))

    @pytest.mark.parametrize("bad", [-1, 7, 100])
    def test_invalid_reader(self, bad):
        # a reader is checked when the cache is built, before the distance pass
        topo = load_topology("0 1\n1 2\n2 3\n3 4\n4 5\n5 6")
        with mock.patch("fogcache.graph._distances", side_effect=AssertionError):
            with pytest.raises(ValueError, match=f"invalid source id {bad}"):
                PathCache(topo, [0, 3, bad])

    @pytest.mark.parametrize("bad", [-1, -40, 7, 100])
    def test_invalid_source(self, bad):
        cache = PathCache(load_topology("0 1\n1 2\n2 3\n3 4\n4 5\n5 6"))
        # the id is checked before any BFS runs
        with mock.patch.object(PathCache, "bfs_levels", side_effect=AssertionError):
            for read in (cache.paths_from, cache.dist_from, cache.next_hops):
                with pytest.raises(ValueError, match=f"invalid source id {bad}"):
                    read(bad)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_every_read_matches_oracle(self, seed):
        # up to 80 nodes (three blocks), split into components, read in a
        # random order with next-hop reads between
        rng = random.Random(seed)
        n = rng.randint(1, 80)
        topo = from_edges(random_edge_set(rng, n, rng.choice([0.02, 0.06, 0.2])),
                          nodes=range(n))
        cache = PathCache(topo)
        for s in rng.sample(range(n), n):
            if rng.random() < 0.3:
                assert list(cache.next_hops(s)) == [
                    min(p) if p else UNREACHABLE for p in oracle_preds(topo, s)]
            assert cache.paths_from(s) == python_bfs(topo, s)

    def test_racing_readers_share_entries(self):
        # four threads read the same 64 sources of each of five fresh caches,
        # meeting at a barrier before each cache and switching as often as
        # the interpreter allows
        _, topo = default_topologies()[0]
        caches = [PathCache(topo) for _ in range(5)]
        sources = range(64)
        barrier = threading.Barrier(4, timeout=60)
        read, errors = [], []

        def reader():
            try:
                mine = []
                for cache in caches:
                    barrier.wait()
                    mine.append([(cache.paths_from(s), cache.dist_from(s),
                                  cache.next_hops(s)) for s in sources])
                read.append(mine)
            except Exception as exc:  # reported by the main thread
                barrier.abort()
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(read) == 4
        for s in sources:
            expected = python_bfs(topo, s)
            preds = [min(p) if p else UNREACHABLE for p in oracle_preds(topo, s)]
            for i, cache in enumerate(caches):
                dist, hops = cache.dist_from(s), cache.next_hops(s)
                assert list(dist) == list(expected.dist) and list(hops) == preds
                for mine in read:
                    sp, their_dist, their_hops = mine[i][s]
                    assert sp == expected
                    assert their_dist is dist and their_hops is hops


@pytest.mark.parametrize("entry", ["run_simulation", "betweenness_centrality",
                                   "cbc_exact", "cbc_replication"])
def test_cache_of_another_topology_rejected(entry):
    # the path 0-1-2-3 and the path 0-3-1-2, both with origin 3: rows of the
    # second would route and score the first wrongly
    def path():
        return from_edges([(0, 1), (1, 2), (2, 3)], origin_spec=3)

    topo = path()
    policy = ReplicationPolicy(0.5, 2, 4)
    call = {
        "run_simulation": lambda cache: run_simulation(
            topo, place_noncollaborative([1], policy),
            RoleAssignment(consumers=(0,), providers=(1,), passive=(2,), seed=0),
            InterestWorkload(draws=((0, 3),), seed=0), path_cache=cache),
        "betweenness_centrality": lambda cache: betweenness_centrality(topo, cache),
        "cbc_exact": lambda cache: cbc_exact(topo, [0], {1: {0}}, 4, cache),
        "cbc_replication": lambda cache: cbc_replication(topo, [0], policy, [1], cache),
    }[entry]
    # a cache of an equal topology built on its own serves it
    assert call(PathCache(path())) == call(None)
    with pytest.raises(ValueError, match="path cache was built for another topology"):
        call(PathCache(from_edges([(0, 3), (3, 1), (1, 2)], origin_spec=3)))


def two_part_graph():
    """200 nodes in two components of 100, each a path with random chords."""
    rng = random.Random(5)
    edges = []
    for base in (0, 100):
        edges += [(base + v, base + v + 1) for v in range(99)]
        edges += [(base + a, base + b) for a, b in random_edge_set(rng, 100, 0.01)]
    return from_edges(edges)


class TestNarrowViews:
    # past 128 nodes the next-hop trees are int16, and past 127 hop levels
    # the distance rows are too; the small graphs above reach neither
    @pytest.mark.parametrize("topo, dist_size", [
        (from_edges([(v, v + 1) for v in range(299)]), 2),
        (two_part_graph(), 1)], ids=["path300", "two_parts200"])
    def test_reads_match_oracle(self, topo, dist_size):
        n = topo.node_count
        adj = adjacency_sets(topo)
        cache = PathCache(topo)
        for s in range(n):
            dist = plain_bfs_dist(adj, s)
            assert list(cache.dist_from(s)) == [dist.get(v, UNREACHABLE)
                                                for v in range(n)]
            assert list(cache.next_hops(s)) == [min(p) if p else UNREACHABLE
                                                for p in oracle_preds(topo, s)]
        assert {cache.dist_from(s).itemsize for s in range(n)} == {dist_size}
        assert {cache.next_hops(s).itemsize for s in range(n)} == {2}

    def test_views_are_read_only(self):
        cache = PathCache(from_edges([(v, v + 1) for v in range(299)]))
        dist, hops = cache.dist_from(0), cache.next_hops(0)
        for view in (dist, hops):
            with pytest.raises(TypeError):
                view[1] = 5
            with pytest.raises(ValueError, match="read-only"):
                np.asarray(view)[1] = 5
        # dist_from hands out the stored row itself, not a copy
        assert cache.dist_from(0) is dist and cache.next_hops(0) is hops
        assert dist[1] == cache.paths_from(0).dist[1] == 1 and hops[1] == 0


@st.composite
def split_graphs(draw):
    """Up to 90 nodes: a random part, a path and isolated nodes, in any mix,
    under a random relabelling."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    core = draw(st.integers(min_value=0, max_value=60))
    path = draw(st.integers(min_value=0, max_value=20))
    n = core + path + draw(st.integers(min_value=0 if core + path else 1, max_value=10))
    edges = random_edge_set(rng, core, rng.choice([0.02, 0.06, 0.2]))
    edges += [(v, v + 1) for v in range(core, core + path - 1)]
    label = rng.sample(range(n), n)
    return from_edges([(label[a], label[b]) for a, b in edges], nodes=range(n))


class TestDistances:
    """Every distance comes from one bit-parallel pass when the cache is
    built; each row must equal a plain BFS from its source."""

    @settings(max_examples=100, deadline=None)
    @given(split_graphs())
    @example(from_edges([], nodes=[0]))
    @example(from_edges([(0, 1), (1, 2), (3, 4)], nodes=range(6)))
    # rows of one word, a full word, and one bit into a second word
    @example(from_edges(random_edge_set(random.Random(1), 63, 0.05), nodes=range(63)))
    @example(from_edges(random_edge_set(random.Random(2), 64, 0.05), nodes=range(64)))
    @example(from_edges(random_edge_set(random.Random(3), 65, 0.05), nodes=range(65)))
    # 299 rounds: int16 rows, and more than one chunk of rows to unpack
    @example(from_edges([(v, v + 1) for v in range(299)]))
    def test_rows_match_plain_bfs(self, topo):
        n = topo.node_count
        adj = adjacency_sets(topo)
        cache = PathCache(topo)
        longest = 0
        for s in range(n):
            dist = plain_bfs_dist(adj, s)
            longest = max(longest, *dist.values())
            assert cache.dist_from(s).tolist() == [dist.get(v, UNREACHABLE)
                                                   for v in range(n)]
        # one dtype per cache: the narrowest for its largest distance
        assert {cache.dist_from(s).format for s in range(n)} == {
            "b" if longest < 128 else "h"}

    def test_memory_stays_under_four_bytes_per_pair(self):
        # the bit planes and reach rows take n²/8 bytes each and the int8
        # matrix n², and the rows are unpacked a chunk at a time: an
        # unchunked unpack held 5.7 n² bytes at once
        topo = generate_synthetic_topology("geometric", 1000, 0.078 * (0.33 ** 0.5), 6)
        n = topo.node_count
        arrays = _csr(n, *_arcs(topo.adjacency))
        gc.collect()
        tracemalloc.start()
        try:
            dist = _distances(*arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n > 900 and peak < 4 * n * n
        adj = adjacency_sets(topo)
        for s in (*range(0, n, 97), *range(n - 70, n)):
            expected = plain_bfs_dist(adj, s)
            assert dist[s].tolist() == [expected.get(v, UNREACHABLE) for v in range(n)]


class TestConnectedComponents:
    def test_single_component(self):
        topo = load_topology("0 1\n1 2")
        assert connected_components(topo) == [(0, 1, 2)]

    def test_two_components(self):
        topo = load_topology("0 1\n2 3")
        assert connected_components(topo) == [(0, 1), (2, 3)]

    def test_isolated_nodes(self):
        topo = from_edges([], nodes=[0, 1, 2], origin_spec=0)
        assert connected_components(topo) == [(0,), (1,), (2,)]

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_nodes=10))
    @example(from_edges([(0, 1), (1, 2), (3, 4)], nodes=range(6)))
    @example(from_edges([], nodes=range(3)))
    @example(from_edges([(5, 9), (1, 9), (0, 5), (2, 7), (3, 7), (6, 8)],
                        nodes=range(12)))
    # node 4 joins two trees whose roots are both smaller than its own
    @example(from_edges([(0, 5), (1, 6), (4, 5), (4, 6)], nodes=range(8)))
    # 90 nodes in 54 components
    @example(from_edges([(i, i + 1) for i in range(0, 90, 3)]
                        + [(i, i + 5) for i in range(0, 80, 15)], nodes=range(90)))
    def test_matches_plain_bfs(self, topo):
        # each node's oracle reach is its component; sorted tuples order
        # disjoint components by smallest member
        adj = adjacency_sets(topo)
        expected = {tuple(sorted(plain_bfs_dist(adj, v)))
                    for v in range(topo.node_count)}
        assert connected_components(topo) == sorted(expected)
