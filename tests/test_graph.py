import pytest
from hypothesis import given, settings, strategies as st

from fogcache.graph import (UNREACHABLE, PathCache, Topology,
                            bfs_shortest_paths, connected_components,
                            from_edges, load_topology, serialize_topology)
from oracles import naive_sigma, random_edge_set

import random


def small_graphs(max_nodes=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_nodes))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        rng = random.Random(seed)
        edges = random_edge_set(rng, n)
        return from_edges(edges, nodes=range(n))
    return build()


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
    @given(small_graphs())
    def test_serialize_roundtrip_property(self, topo):
        # the edge-list format cannot express isolated nodes; drop them first
        edges = [(topo.original_ids[a], topo.original_ids[b])
                 for a, b in topo.edges()]
        if not edges:
            return
        topo = from_edges(edges)
        again = load_topology(serialize_topology(topo),
                              origin_spec=topo.original_ids[topo.origin])
        assert again.adjacency == topo.adjacency
        assert again.origin == topo.origin


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

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_sigma_matches_enumeration(self, topo):
        for s in range(topo.node_count):
            sp = bfs_shortest_paths(topo, s)
            assert list(sp.sigma) == naive_sigma(topo, s)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_predecessor_sum_identity(self, topo):
        for s in range(topo.node_count):
            sp = bfs_shortest_paths(topo, s)
            assert sp.sigma[s] == 1 and sp.dist[s] == 0
            for v in range(topo.node_count):
                if v == s or sp.dist[v] == UNREACHABLE:
                    continue
                assert sp.sigma[v] == sum(sp.sigma[p] for p in sp.preds[v])
                assert all(sp.dist[p] == sp.dist[v] - 1 for p in sp.preds[v])


class TestNextHops:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_smallest_predecessor(self, topo):
        cache = PathCache(topo)
        for t in range(topo.node_count):
            preds = cache.paths_from(t).preds
            assert list(cache.next_hops(t)) == [min(p) if p else UNREACHABLE
                                                for p in preds]

    def test_memoized_per_target(self):
        cache = PathCache(load_topology("0 1\n1 2\n3 4"))
        hops = cache.next_hops(0)
        assert list(hops) == [UNREACHABLE, 0, 1, UNREACHABLE, UNREACHABLE]
        assert cache.next_hops(0) is hops


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
