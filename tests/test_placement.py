import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from fogcache.centrality import (CentralityScores, ReplicationPolicy,
                                 concretize_classes, normalize_minmax)
from fogcache.graph import from_edges, load_topology
from fogcache.placement import (export_assignment_csv, fog_distinct_items,
                                place_fog, place_greedy_popular,
                                place_noncollaborative)


def scores_for(topology, raw):
    raw = tuple(float(x) for x in raw)
    return CentralityScores(kind="cbc_replication", raw=raw,
                            normalized=normalize_minmax(raw))


def line_topology(n, origin=None):
    return from_edges([(i, i + 1) for i in range(n - 1)],
                      origin_spec=n - 1 if origin is None else origin)


class TestPlaceFog:
    def test_two_node_hand_trace(self):
        # A (node 0) outranks B (node 1); b=4, alpha=0.5, 6-item catalog
        topo = line_topology(3)
        scores = scores_for(topo, [2.0, 1.0, 0.0])
        assignment = place_fog(scores, [0, 1], ReplicationPolicy(0.5, 4, 6))
        assert assignment.fog == (0, 1)
        assert assignment.common_parts[0] == (0, 1)
        assert assignment.common_parts[1] == (0, 1)
        assert assignment.unique_parts[0] == (2, 3)
        assert assignment.unique_parts[1] == (4, 5)
        assert fog_distinct_items(assignment) == set(range(6))

    def test_alpha_one_identical_caches(self):
        topo = line_topology(4)
        scores = scores_for(topo, [3, 1, 2, 0])
        assignment = place_fog(scores, [0, 1, 2], ReplicationPolicy(1.0, 4, 10))
        for v in (0, 1, 2):
            assert assignment.items_at(v) == (0, 1, 2, 3)
        assert assignment.fog == (0, 2, 1)

    def test_single_node_capacity_dominates(self):
        topo = line_topology(3)
        scores = scores_for(topo, [1, 0, 0])
        assignment = place_fog(scores, [0], ReplicationPolicy(0.25, 8, 5))
        assert set(assignment.items_at(0)) == set(range(5))

    def test_catalog_exhaustion_leaves_spare_capacity(self):
        topo = line_topology(5)
        scores = scores_for(topo, [4, 3, 2, 1, 0])
        assignment = place_fog(scores, [0, 1, 2, 3], ReplicationPolicy(0.5, 4, 6))
        assert assignment.unique_parts[0] == (2, 3)
        assert assignment.unique_parts[1] == (4, 5)
        assert assignment.unique_parts[2] == ()
        assert assignment.unique_parts[3] == ()

    def test_tie_breaks_on_smaller_original_id(self):
        topo = from_edges([(10, 20), (20, 30)], origin_spec=30)
        scores = scores_for(topo, [1.0, 1.0, 0.0])
        assignment = place_fog(scores, [0, 1], ReplicationPolicy(0.0, 2, 4))
        assert assignment.fog == (0, 1)

    def test_distinct_item_count_formula(self):
        for n_fog in (1, 3, 9):
            for b in (1, 5, 12):
                for alpha in (0.0, 0.3, 0.5, 1.0):
                    topo = line_topology(n_fog + 1)
                    scores = scores_for(topo, range(n_fog + 1, 0, -1))
                    assignment = place_fog(scores, list(range(n_fog)),
                                           ReplicationPolicy(alpha, b, 100))
                    common = math.floor(alpha * b)
                    expected = min(100, common + n_fog * (b - common))
                    assert len(fog_distinct_items(assignment)) == expected

    def test_popularity_dominance(self):
        topo = line_topology(6)
        scores = scores_for(topo, [5, 4, 3, 2, 1, 0])
        assignment = place_fog(scores, [0, 1, 2, 3, 4], ReplicationPolicy(0.5, 6, 40))
        cached = fog_distinct_items(assignment)
        # cached items form a popularity prefix: nothing uncached is more
        # popular than a cached item
        assert cached == set(range(len(cached)))

    def test_pure_function_bit_identical(self):
        topo = line_topology(4)
        scores = scores_for(topo, [1, 3, 2, 0])
        a = place_fog(scores, [0, 1, 2], ReplicationPolicy(0.5, 4, 12))
        b = place_fog(scores, [0, 1, 2], ReplicationPolicy(0.5, 4, 12))
        assert a == b

    def test_score_swap_changes_order_not_items(self):
        topo = line_topology(4)
        policy = ReplicationPolicy(0.5, 4, 12)
        a = place_fog(scores_for(topo, [3, 2, 1, 0]), [0, 1, 2], policy)
        b = place_fog(scores_for(topo, [1, 2, 3, 0]), [0, 1, 2], policy)
        assert a.fog != b.fog
        items_a = sorted([a.items_at(v) for v in (0, 1, 2)])
        items_b = sorted([b.items_at(v) for v in (0, 1, 2)])
        assert items_a == items_b

    def test_invalid_arguments(self):
        topo = line_topology(3)
        scores = scores_for(topo, [1, 0, 0])
        with pytest.raises(ValueError, match="alpha"):
            place_fog(scores, [0], ReplicationPolicy(1.5, 4, 5))
        with pytest.raises(ValueError, match="buffer"):
            place_fog(scores, [0], ReplicationPolicy(0.5, 0, 5))
        # no caching nodes is an empty fog, as for the baselines
        assignment = place_fog(scores, [], ReplicationPolicy(0.5, 4, 5))
        assert assignment.fog == ()
        assert assignment.nodes() == []

    @pytest.mark.parametrize("bad", [-1, 4, 7])
    def test_unknown_caching_node_rejected(self, bad):
        # read as an index, -1 would join the fog with the last node's score
        topo = line_topology(4)
        scores = scores_for(topo, [0, 1, 2, 3])
        with pytest.raises(ValueError, match=f"invalid caching node id {bad}"):
            place_fog(scores, [bad, 1], ReplicationPolicy(0.5, 2, 10))


@st.composite
def sparse_cells(draw):
    """A topology file with sparse original ids listed in shuffled order,
    tied scores, a caching subset (possibly empty) and a policy."""
    ids = draw(st.lists(st.integers(0, 10_000), min_size=2, max_size=12,
                        unique=True))
    path = draw(st.permutations(ids))
    lines = [f"{a} {b}" for a, b in zip(path, path[1:])]
    extra = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          max_size=8))
    lines += [f"{a} {b}" for a, b in extra if a != b]
    topology = load_topology("\n".join(draw(st.permutations(lines))))
    n = topology.node_count
    raw = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0)), min_size=n,
                        max_size=n))
    caching = draw(st.lists(st.integers(0, n - 1), max_size=n))
    policy = ReplicationPolicy(draw(st.sampled_from((0.0, 0.25, 0.5, 1.0))),
                               draw(st.integers(1, 6)), draw(st.integers(1, 20)))
    return topology, scores_for(topology, raw), caching, policy


class TestPlaceFogProperties:
    @settings(max_examples=150, deadline=None)
    @given(sparse_cells())
    def test_realizes_classes_in_score_order(self, cell):
        topology, scores, caching, policy = cell
        assignment = place_fog(scores, caching, policy)
        # the classes cbc_replication scores are the ones placed
        assert ({v: set(assignment.items_at(v)) for v in assignment.nodes()}
                == concretize_classes(policy, assignment.fog))
        assert assignment.fog == tuple(sorted(
            set(caching),
            key=lambda v: (-scores.raw[v], topology.original_ids[v])))


class TestBaselines:
    def test_greedy_popular_top_b_everywhere(self):
        assignment = place_greedy_popular([0, 1, 2], ReplicationPolicy(0.5, 3, 5))
        for v in (0, 1, 2):
            assert assignment.items_at(v) == (0, 1, 2)

    def test_greedy_popular_full_catalog(self):
        assignment = place_greedy_popular([1], ReplicationPolicy(0.5, 9, 4))
        assert assignment.items_at(1) == (0, 1, 2, 3)

    def test_greedy_popular_no_nodes(self):
        assignment = place_greedy_popular([], ReplicationPolicy(0.5, 2, 4))
        assert assignment.nodes() == []

    def test_noncollaborative_identical_caches_no_fog(self):
        assignment = place_noncollaborative([0, 1, 2], ReplicationPolicy(0.5, 2, 4))
        assert assignment.fog == ()
        for v in (0, 1, 2):
            assert assignment.items_at(v) == (0, 1)

    def test_noncollaborative_matches_greedy_contents(self):
        policy = ReplicationPolicy(0.5, 4, 9)
        noncollab = place_noncollaborative([0, 1, 2], policy)
        greedy = place_greedy_popular([0, 1, 2], policy)
        for v in (0, 1, 2):
            assert sorted(noncollab.items_at(v)) == sorted(greedy.items_at(v))

    def test_single_node_matches_fog_alpha_one(self):
        topo = line_topology(3)
        scores = scores_for(topo, [1, 0, 0])
        policy = ReplicationPolicy(1.0, 3, 7)
        noncollab = place_noncollaborative([0], policy)
        fog = place_fog(scores, [0], policy)
        assert sorted(noncollab.items_at(0)) == sorted(fog.items_at(0))


class TestExport:
    def test_csv_shape(self):
        topo = from_edges([(10, 20), (20, 30)], origin_spec=30)
        scores = scores_for(topo, [2, 1, 0])
        assignment = place_fog(scores, [0, 1], ReplicationPolicy(0.5, 3, 6))
        buffer = io.StringIO()
        export_assignment_csv(assignment, topo, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "node_id,scheme,slot_index,item_rank,portion"
        assert lines[1] == "10,fog,0,0,common"
        assert len(lines) == 1 + 3 + 3
        assert any(line.endswith("unique") for line in lines[1:])
