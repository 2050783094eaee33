import gc
import math
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations, count
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fogcache.centrality import (PowerIterationError, ReplicationPolicy,
                                 betweenness_centrality, cbc_exact,
                                 cbc_replication, closeness_centrality,
                                 concretize_classes, degree_centrality,
                                 eigenvector_centrality, normalize_minmax)
from fogcache.experiment import default_topologies
from fogcache.graph import (_BATCH, _INT64_MAX, UNREACHABLE, PathCache,
                            ShortestPathData, from_edges, load_topology)
from fogcache.synthetic import generate_synthetic_topology
from oracles import (adjacency_sets, naive_betweenness, naive_cbc,
                     per_source_betweenness, plain_bfs_dist, python_bfs,
                     random_edge_set)

STAR5 = "0 1\n0 2\n0 3\n0 4"
PATH3 = "0 1\n1 2"


def random_topology(seed, max_nodes=8):
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    return from_edges(random_edge_set(rng, n), nodes=range(n))


def diamond_chain(k):
    """``k`` diamonds in a row: hubs 3i, middles 3i + 1 and 3i + 2, so hub 0
    reaches hub 3k, the origin, over 2^k shortest paths."""
    edges = []
    for h in range(0, 3 * k, 3):
        edges += [(h, h + 1), (h, h + 2), (h + 1, h + 3), (h + 2, h + 3)]
    return from_edges(edges, origin_spec=3 * k)


def branching_chain(seed):
    """A chain of 62-75 diamonds, some with a third middle node, and pendant
    nodes on some hubs and middles: path counts from the sources near either
    end pass 2^63, those from the sources in the middle stay far below."""
    rng = random.Random(seed)
    edges, hub, fresh = [], 0, count(1)
    for _ in range(rng.randint(62, 75)):
        middles = [next(fresh) for _ in range(rng.choice((2, 2, 3)))]
        end = next(fresh)
        edges += [(m, h) for m in middles for h in (hub, end)]
        edges += [(v, next(fresh)) for v in (hub, *middles) if rng.random() < 0.2]
        hub = end
    return from_edges(edges, origin_spec=hub)


def connected_topology(seed, max_nodes=14):
    """A random spanning tree on 3 to ``max_nodes`` nodes plus random chords."""
    rng = random.Random(seed)
    n = rng.randint(3, max_nodes)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    return from_edges(tree + random_edge_set(rng, n, p=0.2))


def shifted_spectrum(topo):
    """λ2/λ1 of A + I as power iteration sees it (the largest other
    eigenvalue magnitude over the dominant one) and the dominant unit
    eigenvector, by LAPACK."""
    a = np.eye(topo.node_count)
    for u, v in topo.edges():
        a[u, v] = a[v, u] = 1.0
    values, vectors = np.linalg.eigh(a)
    return max(abs(values[:-1])) / values[-1], np.abs(vectors[:, -1])


def openblas_on_x86() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return False
    return "openblas" in blas.lower() and platform.machine() in ("x86_64", "AMD64")


# eigenvector ``raw`` of topology1 and a small geometric graph, hashed in a
# child process whose OpenBLAS kernel the caller picks
_EIGENVECTOR_HASH = """
import hashlib
from fogcache.centrality import eigenvector_centrality
from fogcache.experiment import default_topologies
from fogcache.synthetic import generate_synthetic_topology
graphs = (default_topologies()[0][1],
          generate_synthetic_topology("geometric", 60, 0.25, 3))
raw = [eigenvector_centrality(g).raw for g in graphs]
print(hashlib.sha256(repr(raw).encode()).hexdigest())
"""


def assert_batched_betweenness(topo, precached=()):
    """Betweenness equals the per-source pass bit for bit, leaves every
    source's σ and order in the cache as rows from which, with its distance
    row, ``paths_from`` builds the oracle's ``python_bfs`` (exact Python
    ints), and keeps the rows stored before it."""
    cache = PathCache(topo)
    dists = [cache.dist_from(s) for s in range(topo.node_count)]
    for s in precached:
        cache.paths_from(s)
    before = dict(cache._rows)
    assert betweenness_centrality(topo, cache).raw == per_source_betweenness(topo)
    for values, sigma, order in cache._rows.values():
        assert sigma.dtype.kind == "u"
        # counts are boxed only in a batch where one of them passes int64
        assert values.dtype == np.int64 or max(values) > _INT64_MAX
        assert order.dtype == np.min_scalar_type(topo.node_count)
    # every source is cached now: a lookup that ran a BFS would raise
    with mock.patch.object(PathCache, "bfs_levels", side_effect=AssertionError):
        cached = [cache.paths_from(s) for s in range(topo.node_count)]
    # rows stored earlier are kept, and the distance views are the same objects
    assert all(cache._rows[s] is row for s, row in before.items())
    assert all(cache.dist_from(s) is dist for s, dist in enumerate(dists))
    # one dtype for every distance row: the narrowest for the graph's largest
    # distance
    assert {dist.format for dist in dists} == {
        "b" if max(max(sp.dist) for sp in cached) < 128 else "h"}
    for s, sp in enumerate(cached):
        assert sp == python_bfs(topo, s)
        assert all(type(x) is int for x in (*sp.dist, *sp.sigma, *sp.order))
    return cache


class TestClassicCentralities:
    def test_degree_star(self):
        scores = degree_centrality(load_topology(STAR5))
        assert scores.raw == (4.0, 1.0, 1.0, 1.0, 1.0)
        assert scores.normalized == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_degree_path(self):
        assert degree_centrality(load_topology(PATH3)).raw == (1.0, 2.0, 1.0)

    def test_closeness_path(self):
        scores = closeness_centrality(load_topology(PATH3))
        assert scores.raw[1] == pytest.approx(1.0)
        assert scores.raw[0] == pytest.approx(2 / 3)

    def test_closeness_complete_symmetric(self):
        k4 = from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert len(set(closeness_centrality(k4).raw)) == 1

    def test_closeness_isolated_zero(self):
        topo = from_edges([(0, 1)], nodes=[0, 1, 2])
        assert closeness_centrality(topo).raw[2] == 0.0

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_closeness_runs_no_bfs_matches_oracle(self, seed):
        topo = random_topology(seed, max_nodes=12)
        with mock.patch.object(PathCache, "bfs_levels", side_effect=AssertionError):
            raw = closeness_centrality(topo).raw
        adj = adjacency_sets(topo)
        for v in range(topo.node_count):
            dists = [d for d in plain_bfs_dist(adj, v).values() if d > 0]
            assert raw[v] == (len(dists) / sum(dists) if dists else 0.0)

    def test_betweenness_path(self):
        assert betweenness_centrality(load_topology(PATH3)).raw == (0.0, 1.0, 0.0)

    def test_betweenness_cycle(self):
        cycle = load_topology("0 1\n1 2\n2 3\n3 0")
        assert betweenness_centrality(cycle).raw == (0.5, 0.5, 0.5, 0.5)

    def test_betweenness_star_center(self):
        assert betweenness_centrality(load_topology(STAR5)).raw[0] == 6.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_betweenness_matches_naive(self, seed):
        topo = random_topology(seed)
        fast = betweenness_centrality(topo).raw
        slow = naive_betweenness(topo)
        assert all(abs(a - b) < 1e-9 for a, b in zip(fast, slow))


class TestBatchedBetweenness:
    def test_path_counts_beyond_int64(self):
        topo = diamond_chain(70)  # 2^70 paths end to end
        # the first batch's path counts outgrow int64 and go on as Python
        # ints; a middle batch's stay int64 to the end
        deepest = PathCache(topo).bfs_levels(range(32))[-1]
        assert deepest.nodes.tolist() == [210]
        assert deepest.sigma.dtype == object and deepest.sigma.tolist() == [2 ** 70]
        assert type(deepest.sigma[0]) is int
        assert all(level.sigma.dtype == np.int64
                   for level in PathCache(topo).bfs_levels(range(96, 128)))
        cache = assert_batched_betweenness(topo)
        assert cache.paths_from(0).sigma[210] == 2 ** 70

    def test_promoted_batch_that_fits_stores_int64(self):
        # 2^62 paths end to end: past INT64_MAX // 4 (hubs have degree 4),
        # so the first batch goes on in Python ints, yet every count fits
        topo = diamond_chain(62)
        deepest = PathCache(topo).bfs_levels(range(32))[-1]
        assert deepest.sigma.dtype == object and deepest.sigma.tolist() == [2 ** 62]
        cache = assert_batched_betweenness(topo)
        assert cache._rows[0][0].dtype == np.int64
        assert cache.paths_from(0).sigma[186] == 2 ** 62

    @pytest.mark.parametrize("seed", range(6))
    def test_branching_chains_past_int64(self, seed):
        topo = branching_chain(seed)
        n = topo.node_count
        batches = [range(s, min(s + _BATCH, n)) for s in range(0, n, _BATCH)]
        # some batches go on in Python ints, others stay int64 to the end
        assert {any(level.sigma.dtype == object
                    for level in PathCache(topo).bfs_levels(batch))
                for batch in batches} == {True, False}
        cache = assert_batched_betweenness(topo, random.Random(seed).sample(range(n), 9))
        assert max(cache.paths_from(0).sigma) > 2 ** 63
        # a fresh cache's misses fill the same entries block by block
        fresh = PathCache(topo)
        assert [fresh.paths_from(s) for s in range(n - 1, -1, -1)] == \
            [python_bfs(topo, s) for s in range(n - 1, -1, -1)]

    def test_cbc_reads_betweenness_cache_past_int64(self):
        topo = diamond_chain(70)
        filled = PathCache(topo)
        betweenness_centrality(topo, filled)
        policy = ReplicationPolicy(alpha=0.5, buffer_items=2, catalog_size=20)
        args = (topo, range(0, 211, 5), policy, [1, 64, 122, 200])
        scores = cbc_replication(*args, filled)
        assert scores == cbc_replication(*args, PathCache(topo))
        assert max(scores.raw) > 0

    def test_diamond_chain_matches_naive(self):
        topo = diamond_chain(3)
        assert betweenness_centrality(topo).raw == pytest.approx(
            naive_betweenness(topo), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_matches_per_source_pass(self, seed):
        # up to 80 nodes (three batches), sparse enough to split into
        # components and leave nodes isolated
        rng = random.Random(seed)
        n = rng.randint(1, 80)
        topo = from_edges(random_edge_set(rng, n, rng.choice([0.01, 0.04, 0.1, 0.3])),
                          nodes=range(n))
        assert_batched_betweenness(topo, rng.sample(range(n), rng.randint(0, n)))

    @pytest.mark.parametrize("index", range(3))
    def test_default_topologies_match_per_source_pass(self, index):
        _, topo = default_topologies()[index]
        assert_batched_betweenness(topo, range(0, topo.node_count, 7))


def eager_entries(topo, ids):
    """Every source's entry as an eager store keeps it: path counts share one
    int object per distinct value within each batch of ``_BATCH`` sources,
    node ids one object per node of ``ids``."""
    entries = {}
    for start in range(0, topo.node_count, _BATCH):
        pool = {}
        for s in range(start, min(start + _BATCH, topo.node_count)):
            sp = python_bfs(topo, s)
            entries[s] = ShortestPathData(
                dist=sp.dist, sigma=tuple(pool.setdefault(x, x) for x in sp.sigma),
                order=tuple(ids[v] for v in sp.order))
    return entries


class TestLazyRows:
    def test_disconnected_rows_are_narrow(self):
        topo = from_edges([(0, 1), (1, 2), (3, 4)], nodes=range(6))
        cache = PathCache(topo)
        betweenness_centrality(topo, cache)
        dist = cache.dist_from(0)
        values, sigma, order = cache._rows[0]
        assert dist.itemsize == 1 and sigma.dtype == order.dtype == np.uint8
        assert dist.tolist() == [0, 1, 2] + [UNREACHABLE] * 3
        assert values.take(sigma).tolist() == [1, 1, 1, 0, 0, 0]
        assert order.tolist() == [0, 1, 2]
        assert_batched_betweenness(topo)

    def test_sigma_and_order_rows_stay_lazy(self):
        # distances and next hops build no row; a paths_from miss builds its
        # block's σ and order rows, and no row holds a distance
        _, topo = default_topologies()[0]
        n = topo.node_count
        cache = PathCache(topo)
        with mock.patch.object(PathCache, "bfs_levels", side_effect=AssertionError):
            dists = [cache.dist_from(s) for s in range(n)]
            for t in range(0, n, 5):
                cache.next_hops(t)
        assert cache._rows == {}
        assert cache.paths_from(40) == python_bfs(topo, 40)
        assert sorted(cache._rows) == list(range(32, 64))
        for values, sigma, order in cache._rows.values():
            assert sigma.size == n and order.size <= n
            assert values.dtype == np.int64 and values[0] == 0
        assert all(cache.dist_from(s) is dist for s, dist in enumerate(dists))

    def test_lookup_builds_only_its_source(self):
        _, topo = default_topologies()[0]
        cache = PathCache(topo)
        betweenness_centrality(topo, cache)
        # a row read is a hit: it runs no BFS and keeps every row, whose
        # distance view dist_from hands out again
        with mock.patch.object(PathCache, "bfs_levels", side_effect=AssertionError):
            dists = [cache.dist_from(s) for s in range(topo.node_count)]
            sp = cache.paths_from(40)
            assert cache.dist_from(40) is dists[40]
            assert list(dists[40]) == list(sp.dist) == list(cache.paths_from(40).dist)
        assert all(cache.dist_from(s) is dist for s, dist in enumerate(dists))
        assert sp == python_bfs(topo, 40)

    def test_batch_shares_int_objects(self):
        topo = diamond_chain(90)  # node ids up to 270, path counts up to 2^90
        cache = PathCache(topo)
        betweenness_centrality(topo, cache)
        # hubs h and h + 3 share a batch and reach hubs h + 3i and h + 3i + 3
        # over 2^i paths; the first batch's counts pass int64 and stay boxed,
        # the fourth's do not and stay int64
        assert cache._rows[0][0].dtype == object
        assert cache._rows[96][0].dtype == np.int64
        for h, i in ((0, 10), (0, 64), (96, 10)):
            a, b = cache.paths_from(h), cache.paths_from(h + 3)
            assert a.sigma[h + 3 * i] == b.sigma[h + 3 * i + 3] == 2 ** i
            if h < 96:
                assert a.sigma[h + 3 * i] is b.sigma[h + 3 * i + 3]
            assert a.order[-1] == 270 and a.order[-1] is b.order[-1]

    def test_default_topology_rows_hold_no_objects(self):
        # their path counts fit int64, so no stored σ row boxes them
        for _, topo in default_topologies():
            cache = PathCache(topo)
            betweenness_centrality(topo, cache)
            assert all(array.dtype != object
                       for row in cache._rows.values() for array in row)

    def test_reads_keep_only_distance_views(self):
        _, topo = default_topologies()[0]
        n = topo.node_count
        cache = PathCache(topo)
        ids = cache._ids.tolist()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            betweenness_centrality(topo, cache)
            gc.collect()
            rows = tracemalloc.get_traced_memory()[0] - base
            for s in range(n):
                cache.paths_from(s)
                cache.dist_from(s)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
            eager = eager_entries(topo, ids)
            gc.collect()
            eager_size = tracemalloc.get_traced_memory()[0] - base - kept
            dists = [sp.dist for sp in map(python_bfs, [topo] * n, range(n))]
            gc.collect()
            dist_size = (tracemalloc.get_traced_memory()[0] - base - kept
                         - eager_size)
        finally:
            tracemalloc.stop()
        assert [cache.paths_from(s) for s in range(n)] == list(eager.values())
        assert [list(cache.dist_from(s)) for s in range(n)] == list(map(list, dists))
        assert rows < eager_size / 2
        # the reads keep nothing: dist_from hands out each source's stored
        # distance view, and paths_from builds its tuples on each call, where
        # an eager store keeps distance, σ and order tuples (64 bytes were
        # measured against 0.87 MB of distance tuples)
        assert kept - rows < dist_size / 500


class TestReaders:
    """A cache built with ``readers`` keeps σ and order rows for those
    sources only; every score and every read stays as without them."""

    @staticmethod
    def readers_of(topo, seed=0, share=0.3):
        n = topo.node_count
        return sorted(random.Random(seed).sample(range(n), max(1, int(share * n))))

    def test_betweenness_keeps_rows_for_readers_only(self):
        _, topo = default_topologies()[0]
        readers = self.readers_of(topo)
        cache, full = PathCache(topo, readers), PathCache(topo)
        betweenness_centrality(topo, cache)
        betweenness_centrality(topo, full)
        assert sorted(cache._rows) == readers
        # the compact rows of a batch share one array of distinct counts
        assert len({id(cache._rows[s][0]) for s in readers}) == len(
            {s // _BATCH for s in readers})
        with mock.patch.object(PathCache, "bfs_levels", side_effect=AssertionError):
            for s in readers:
                assert cache.paths_from(s) == full.paths_from(s)

    def test_read_outside_readers_runs_its_block(self):
        _, topo = default_topologies()[0]
        readers = self.readers_of(topo)
        outside = next(s for s in range(40, topo.node_count) if s not in readers)
        start = outside - outside % _BATCH
        cache = PathCache(topo, readers)
        betweenness_centrality(topo, cache)
        with mock.patch.object(PathCache, "bfs_levels", autospec=True,
                               side_effect=PathCache.bfs_levels) as bfs:
            sp = cache.paths_from(outside)
            assert [list(call.args[1]) for call in bfs.call_args_list] == [
                list(range(start, min(start + _BATCH, topo.node_count)))]
            assert cache.paths_from(outside) == sp
            assert bfs.call_count == 1
        # the block's BFS keeps the new reader's rows and no one else's
        assert sorted(cache._rows) == sorted({*readers, outside})
        assert sp == PathCache(topo).paths_from(outside) == python_bfs(topo, outside)

    @pytest.mark.parametrize("build, boxed", [
        (lambda: default_topologies()[1][1], False), (lambda: diamond_chain(70), True),
        (lambda: branching_chain(3), True)], ids=["topology2", "diamonds70", "branching3"])
    def test_scores_bit_identical(self, build, boxed):
        # the diamond and branching chains' path counts pass 2^63, so some
        # batches store their readers' distinct counts as Python ints
        topo = build()
        readers = self.readers_of(topo, seed=topo.node_count)
        raw = betweenness_centrality(topo, PathCache(topo)).raw
        for kept in ((), readers):
            cache = PathCache(topo, kept)
            assert betweenness_centrality(topo, cache).raw == raw
            assert sorted(cache._rows) == list(kept)
        assert any(cache._rows[s][0].dtype == object for s in readers) == boxed
        policy = ReplicationPolicy(alpha=0.5, buffer_items=2, catalog_size=20)
        args = (topo, readers, policy, readers[::7])
        assert cbc_replication(*args, cache).raw == cbc_replication(
            *args, PathCache(topo)).raw

    def test_memory_stays_under_half_of_every_row(self):
        # 30% of the nodes as readers: the rows betweenness leaves in the
        # cache, the distance matrix built with it left out
        topo = generate_synthetic_topology("geometric", 1000, 0.078 * (0.33 ** 0.5), 6)
        readers = self.readers_of(topo)
        left = {}
        for name, kept in (("readers", readers), ("every", None)):
            cache = PathCache(topo, kept)
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                betweenness_centrality(topo, cache)
                gc.collect()
                left[name] = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            del cache
        assert topo.node_count > 900
        assert 0 < left["readers"] < left["every"] / 2


class TestEigenvector:
    def test_complete_k3_uniform(self):
        k3 = from_edges([(0, 1), (1, 2), (0, 2)])
        raw = eigenvector_centrality(k3).raw
        assert all(x == pytest.approx(1 / math.sqrt(3), abs=1e-6) for x in raw)

    def test_star_center_dominates(self):
        raw = eigenvector_centrality(load_topology(STAR5)).raw
        assert raw[0] > max(raw[1:])

    def test_path_known_eigenvector(self):
        raw = eigenvector_centrality(load_topology(PATH3)).raw
        assert raw[0] == pytest.approx(0.5, abs=1e-6)
        assert raw[1] == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_unit_norm_nonnegative_and_eigenpair(self):
        topo = random_topology(17)
        raw = eigenvector_centrality(topo).raw
        assert sum(x * x for x in raw) == pytest.approx(1.0)
        assert all(x >= 0 for x in raw)
        # applying the (shifted) adjacency rescales by a constant
        ax = [raw[v] + sum(raw[w] for w in topo.adjacency[v])
              for v in range(topo.node_count)]
        lam = max(ax)
        support = [v for v in range(topo.node_count) if raw[v] > 1e-8]
        ratios = {round(ax[v] / raw[v], 6) for v in support}
        assert len(ratios) == 1

    def test_no_convergence_reported(self):
        with pytest.raises(PowerIterationError):
            eigenvector_centrality(load_topology(STAR5), tol=1e-15, max_iter=2)

    def test_empty_edge_graph_rejected(self):
        topo = from_edges([], nodes=[0, 1])
        with pytest.raises(ValueError, match="empty-edge"):
            eigenvector_centrality(topo)

    def test_small_spectral_gap_converges(self):
        # K6 on 0-5 and K6 on 6-11 joined by the path 0-12-13-14-6, with a
        # leaf 15 on node 12: λ2/λ1 = 0.99942 asks for 18 708 steps
        edges = [*combinations(range(6), 2), *combinations(range(6, 12), 2),
                 (0, 12), (12, 13), (13, 14), (14, 6), (12, 15)]
        topo = from_edges(edges)
        r, expected = shifted_spectrum(topo)
        assert 0.999 < r < 0.9995
        tol = 1e-9
        raw = np.array(eigenvector_centrality(topo, tol=tol).raw)
        assert np.max(np.abs(raw - expected)) < 10 * tol / (1 - r)

    @pytest.mark.skipif(not openblas_on_x86(), reason="needs OpenBLAS on x86-64")
    def test_bits_do_not_depend_on_blas_kernel(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        hashes = set()
        for kernel in ("Haswell", "Prescott"):
            env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH"))))}
            run = subprocess.run([sys.executable, "-c", _EIGENVECTOR_HASH],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            hashes.add(run.stdout.strip())
        assert len(hashes) == 1

    @pytest.mark.parametrize("index", range(3))
    def test_closed_twins_score_bit_equal(self, index):
        # the closed-neighbourhood sum adds a twin's terms in one order
        _, topo = default_topologies()[index]
        raw = eigenvector_centrality(topo).raw
        twins = {}
        for v, adj in enumerate(topo.adjacency):
            twins.setdefault(tuple(sorted((v, *adj))), []).append(v)
        groups = [g for g in twins.values() if len(g) > 1]
        assert groups
        for group in groups:
            assert len({raw[v] for v in group}) == 1

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        topo = connected_topology(seed)
        graph = nx.Graph(topo.edges())
        expected = nx.eigenvector_centrality_numpy(graph)
        r, _ = shifted_spectrum(topo)
        tol = 1e-9
        raw = eigenvector_centrality(topo, tol=tol).raw
        assert max(abs(raw[v] - expected[v]) for v in range(topo.node_count)) \
            < 10 * tol / (1 - r)


class TestNormalizeMinmax:
    def test_basic(self):
        assert normalize_minmax([2, 4, 6]) == (0.0, 0.5, 1.0)

    def test_degenerate_all_equal(self):
        assert normalize_minmax([3, 3, 3]) == (0.0, 0.0, 0.0)

    def test_two_values(self):
        assert normalize_minmax([0, 10]) == (0.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20))
    def test_range_and_argmax_preserved(self, values):
        normalized = normalize_minmax(values)
        assert all(0.0 <= x <= 1.0 for x in normalized)
        if len(set(values)) > 1:
            # a raw maximizer stays a maximizer (ties may appear via rounding)
            assert normalized[values.index(max(values))] == max(normalized)
            assert max(normalized) == 1.0 and min(normalized) == 0.0


class TestCbcExact:
    def test_all_items_through_middle(self):
        topo = load_topology(PATH3, origin_spec=2)
        raw = cbc_exact(topo, [0], {}, 5).raw
        assert raw == (0.0, 5.0, 0.0)

    def test_cached_item_excludes_holder_endpoint(self):
        topo = load_topology(PATH3, origin_spec=2)
        raw = cbc_exact(topo, [0], {1: {0}}, 5).raw
        assert raw == (0.0, 4.0, 0.0)

    def test_on_path_node_beats_high_degree_hub(self):
        # consumers 0,1 reach the origin 3 only via node 2; node 4 is a
        # well-connected hub that sits on no consumer-to-content path
        topo = from_edges([(0, 2), (1, 2), (2, 3), (0, 4), (1, 4), (4, 5), (4, 6)],
                          origin_spec=3)
        cbc = cbc_exact(topo, [0, 1], {}, 5).raw
        deg = degree_centrality(topo).raw
        hub, on_path = 4, 2
        assert deg[hub] > deg[on_path]
        assert cbc[on_path] > cbc[hub]

    def test_consumer_holding_item_contributes_zero(self):
        topo = load_topology(PATH3, origin_spec=2)
        raw = cbc_exact(topo, [0], {0: {0, 1}}, 5).raw
        assert raw == (0.0, 3.0, 0.0)

    def test_unknown_content_rejected(self):
        topo = load_topology(PATH3, origin_spec=2)
        with pytest.raises(ValueError, match="unknown content"):
            cbc_exact(topo, [0], {1: {7}}, 5)

    def test_unreachable_pairs_contribute_zero(self):
        topo = from_edges([(0, 1), (2, 3)], origin_spec=3)
        raw = cbc_exact(topo, [0], {}, 4).raw
        assert raw == (0.0, 0.0, 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_matches_path_enumeration(self, seed):
        rng = random.Random(seed)
        topo = random_topology(seed)
        n = topo.node_count
        catalog = rng.randint(1, 5)
        consumers = [v for v in range(n) if rng.random() < 0.5]
        placement = {v: {x for x in range(catalog) if rng.random() < 0.3}
                     for v in range(n) if rng.random() < 0.5}
        fast = cbc_exact(topo, consumers, placement, catalog).raw
        slow = naive_cbc(topo, consumers, placement, catalog)
        assert all(abs(a - b) < 1e-9 for a, b in zip(fast, slow))

    def test_monotone_in_origin_only_items(self):
        for seed in range(25):
            rng = random.Random(seed)
            topo = random_topology(seed)
            n = topo.node_count
            consumers = [v for v in range(n) if rng.random() < 0.6]
            placement = {v: {x for x in range(4) if rng.random() < 0.4}
                         for v in range(n)}
            base = cbc_exact(topo, consumers, placement, 4).raw
            more = cbc_exact(topo, consumers, placement, 5).raw
            assert all(b >= a - 1e-12 for a, b in zip(base, more))


class TestReplicationPolicy:
    def test_portion_split_is_exact(self):
        policy = ReplicationPolicy(alpha=0.6, buffer_items=7, catalog_size=50)
        assert policy.common_class_size + policy.unique_class_size == 7
        assert policy.common_class_size == 4

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            ReplicationPolicy(alpha=1.2, buffer_items=4, catalog_size=10)

    def test_common_class_exceeding_catalog(self):
        policy = ReplicationPolicy(alpha=1.0, buffer_items=20, catalog_size=10)
        assert policy.common_class_size == 10
        _, unique, miss = policy.layout([0, 1])
        assert [len(ranks) for ranks in unique.values()] == [0, 0]
        assert len(miss) == 0

    def test_layout_ranks_follow_fog_order(self):
        policy = ReplicationPolicy(alpha=0.5, buffer_items=4, catalog_size=9)
        common, unique, miss = policy.layout([3, 1, 3, 0, 2])
        assert common == range(2)
        assert unique == {3: range(2, 4), 1: range(4, 6), 0: range(6, 8),
                          2: range(8, 9)}
        assert miss == range(9, 9)

    def test_layout_without_caching_nodes_is_all_miss(self):
        policy = ReplicationPolicy(alpha=0.5, buffer_items=4, catalog_size=9)
        assert policy.layout([]) == (range(0), {}, range(9))

    def test_realized_sizes_trim_and_miss(self):
        policy = ReplicationPolicy(alpha=0.5, buffer_items=4, catalog_size=10)
        _, unique, miss = policy.layout([0, 1, 2, 3, 4, 5])
        assert [len(ranks) for ranks in unique.values()] == [2, 2, 2, 2, 0, 0]
        assert len(miss) == 0


@st.composite
def replica_cells(draw):
    """Small snapshots, often disconnected, with a caching list that may
    repeat ids (``repeat``) and hold the origin (``at_origin``), and a
    policy whose buffer may exceed the catalog or leave the trailing unique
    classes trimmed or empty."""
    n = draw(st.integers(min_value=2, max_value=9))
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    # sparse graphs put the nearest holders beyond the consumer's neighbours
    p = draw(st.sampled_from((0.15, 0.25, 0.4)))
    topo = from_edges(random_edge_set(rng, n, p), nodes=range(n),
                      origin_spec=rng.randrange(n))
    share = draw(st.sampled_from((0.2, 0.5)))
    caching = [v for v in range(n) if rng.random() < share]
    rng.shuffle(caching)
    if draw(st.booleans()):  # repeat
        caching += rng.sample(caching, len(caching) // 2)
    if draw(st.booleans()):  # at_origin
        caching.insert(rng.randint(0, len(caching)), topo.origin)
    consumers = [v for v in range(n) if rng.random() < 0.6]
    catalog = draw(st.integers(min_value=1, max_value=8))
    policy = ReplicationPolicy(alpha=draw(st.sampled_from((0.0, 0.3, 0.5, 1.0))),
                               buffer_items=draw(st.integers(1, catalog + 3)),
                               catalog_size=catalog)
    return topo, consumers, policy, caching


class TestCbcReplication:
    def test_no_caching_nodes_reduces_to_miss_only(self):
        topo = load_topology(PATH3, origin_spec=2)
        policy = ReplicationPolicy(alpha=0.5, buffer_items=2, catalog_size=5)
        repl = cbc_replication(topo, [0], policy, []).raw
        exact = cbc_exact(topo, [0], {}, 5).raw
        assert repl == exact

    def test_full_replication_single_node(self):
        topo = from_edges([(0, 1), (1, 2), (2, 3)], origin_spec=3)
        policy = ReplicationPolicy(alpha=1.0, buffer_items=5, catalog_size=5)
        repl = cbc_replication(topo, [0], policy, [2]).raw
        exact = cbc_exact(topo, [0], {2: set(range(5))}, 5).raw
        assert all(abs(a - b) < 1e-12 for a, b in zip(repl, exact))

    def test_five_node_example_matches_exact(self):
        topo = from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],
                          origin_spec=4)
        policy = ReplicationPolicy(alpha=0.5, buffer_items=4, catalog_size=10)
        caching = [1, 3]
        repl = cbc_replication(topo, [0, 2], policy, caching).raw
        exact = cbc_exact(topo, [0, 2],
                          concretize_classes(policy, caching), 10).raw
        assert all(abs(a - b) < 1e-9 for a, b in zip(repl, exact))

    def test_origin_among_caching_nodes(self):
        # the common item's nearest holders 2 (the origin) and 4 split it
        topo = from_edges([(0, 1), (1, 2), (0, 3), (3, 4)], origin_spec=2)
        policy = ReplicationPolicy(alpha=1.0, buffer_items=1, catalog_size=1)
        repl = cbc_replication(topo, [0], policy, [2, 4]).raw
        assert repl == (0.0, 0.5, 0.0, 0.5, 0.0)
        assert repl == cbc_exact(topo, [0], concretize_classes(policy, [2, 4]), 1).raw

    def test_split_shares_summed_before_whole_class_tally(self):
        # consumer 0 reaches the origin 3 over two paths and the caching
        # nodes 4 and 5 over one each, all at distance 2; 6 lies beyond 4.
        # The origin serves 6's unique item and the 7 missed ones whole and
        # takes 2/3 of 4's and of 5's, so each middle node scores exactly
        # (2/3 + 2/3 + 8) / 2 + 1/3 = 5.  Summed in class order instead,
        # 1 + 2/3 + 2/3 + 7, they would score 4.999999999999999.
        topo = from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 5), (4, 6)],
                          origin_spec=3)
        policy = ReplicationPolicy(alpha=0.0, buffer_items=1, catalog_size=10)
        caching = [6, 4, 5]
        expected = (0.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0)
        assert cbc_replication(topo, [0], policy, caching).raw == expected
        assert cbc_exact(topo, [0], concretize_classes(policy, caching), 10).raw == expected

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_invalid_consumer_rejected(self, bad):
        topo = from_edges([(0, 1), (1, 2), (2, 3)], origin_spec=3)
        policy = ReplicationPolicy(alpha=0.5, buffer_items=2, catalog_size=5)
        with pytest.raises(ValueError, match=f"invalid consumer id {bad}"):
            cbc_exact(topo, [bad, 0], {}, 5)
        with pytest.raises(ValueError, match=f"invalid consumer id {bad}"):
            cbc_replication(topo, [bad, 0], policy, [1])

    def test_path_counts_beyond_float_precision(self):
        # the consumer 0 reaches the origin 180 over 2^60 shortest paths
        topo = diamond_chain(60)
        assert PathCache(topo).paths_from(0).sigma[180] == 2 ** 60
        expected = tuple(0.0 if v in (0, 180) else 3.0 if v % 3 == 0 else 1.5
                         for v in range(181))
        policy = ReplicationPolicy(alpha=0.0, buffer_items=1, catalog_size=3)
        assert cbc_exact(topo, [0], {}, 3).raw == expected
        assert cbc_replication(topo, [0], policy, []).raw == expected

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_matches_exact_on_concretized_classes(self, seed):
        rng = random.Random(seed)
        topo = random_topology(seed)
        n = topo.node_count
        catalog = rng.randint(2, 8)
        b = rng.randint(1, catalog)
        alpha = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        policy = ReplicationPolicy(alpha=alpha, buffer_items=b,
                                   catalog_size=catalog)
        caching = [v for v in range(n) if rng.random() < 0.4]
        rng.shuffle(caching)
        consumers = [v for v in range(n) if rng.random() < 0.5]
        repl = cbc_replication(topo, consumers, policy, caching).raw
        exact = cbc_exact(topo, consumers,
                          concretize_classes(policy, caching), catalog).raw
        assert all(abs(a - b_) < 1e-9 for a, b_ in zip(repl, exact))

    # cbc_exact runs the same pass, so path enumeration checks the classes
    @settings(max_examples=150, deadline=None)
    @given(replica_cells())
    def test_matches_naive_oracle(self, cell):
        topo, consumers, policy, caching = cell
        repl = cbc_replication(topo, consumers, policy, caching).raw
        expected = naive_cbc(topo, consumers, concretize_classes(policy, caching),
                             policy.catalog_size)
        assert len(repl) == len(expected)
        assert all(abs(a - b) < 1e-9 for a, b in zip(repl, expected))
