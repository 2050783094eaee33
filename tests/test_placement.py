import io
import math

import pytest

from fogcache.catalog import zipf_catalog
from fogcache.centrality import CentralityScores, normalize_minmax
from fogcache.graph import from_edges
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
        catalog = zipf_catalog(6)
        scores = scores_for(topo, [2.0, 1.0, 0.0])
        assignment = place_fog(topo, scores, catalog, [0, 1], 4, 0.5)
        assert assignment.fog == (0, 1)
        assert assignment.common_parts[0] == (0, 1)
        assert assignment.common_parts[1] == (0, 1)
        assert assignment.unique_parts[0] == (2, 3)
        assert assignment.unique_parts[1] == (4, 5)
        assert fog_distinct_items(assignment) == set(range(6))

    def test_alpha_one_identical_caches(self):
        topo = line_topology(4)
        catalog = zipf_catalog(10)
        scores = scores_for(topo, [3, 1, 2, 0])
        assignment = place_fog(topo, scores, catalog, [0, 1, 2], 4, 1.0)
        for v in (0, 1, 2):
            assert assignment.items_at(v) == (0, 1, 2, 3)
        assert assignment.fog == (0, 2, 1)

    def test_single_node_capacity_dominates(self):
        topo = line_topology(3)
        catalog = zipf_catalog(5)
        scores = scores_for(topo, [1, 0, 0])
        assignment = place_fog(topo, scores, catalog, [0], 8, 0.25)
        assert set(assignment.items_at(0)) == set(range(5))

    def test_catalog_exhaustion_leaves_spare_capacity(self):
        topo = line_topology(5)
        catalog = zipf_catalog(6)
        scores = scores_for(topo, [4, 3, 2, 1, 0])
        assignment = place_fog(topo, scores, catalog, [0, 1, 2, 3], 4, 0.5)
        assert assignment.unique_parts[0] == (2, 3)
        assert assignment.unique_parts[1] == (4, 5)
        assert assignment.unique_parts[2] == ()
        assert assignment.unique_parts[3] == ()

    def test_tie_breaks_on_smaller_original_id(self):
        topo = from_edges([(10, 20), (20, 30)], origin_spec=30)
        scores = scores_for(topo, [1.0, 1.0, 0.0])
        assignment = place_fog(topo, scores, zipf_catalog(4), [0, 1], 2, 0.0)
        assert assignment.fog == (0, 1)

    def test_distinct_item_count_formula(self):
        catalog = zipf_catalog(100)
        for n_fog in (1, 3, 9):
            for b in (1, 5, 12):
                for alpha in (0.0, 0.3, 0.5, 1.0):
                    topo = line_topology(n_fog + 1)
                    scores = scores_for(topo, range(n_fog + 1, 0, -1))
                    assignment = place_fog(topo, scores, catalog,
                                           list(range(n_fog)), b, alpha)
                    common = math.floor(alpha * b)
                    expected = min(100, common + n_fog * (b - common))
                    assert len(fog_distinct_items(assignment)) == expected

    def test_popularity_dominance(self):
        topo = line_topology(6)
        catalog = zipf_catalog(40)
        scores = scores_for(topo, [5, 4, 3, 2, 1, 0])
        assignment = place_fog(topo, scores, catalog, [0, 1, 2, 3, 4], 6, 0.5)
        cached = fog_distinct_items(assignment)
        # cached items form a popularity prefix: nothing uncached is more
        # popular than a cached item
        assert cached == set(range(len(cached)))

    def test_pure_function_bit_identical(self):
        topo = line_topology(4)
        catalog = zipf_catalog(12)
        scores = scores_for(topo, [1, 3, 2, 0])
        a = place_fog(topo, scores, catalog, [0, 1, 2], 4, 0.5)
        b = place_fog(topo, scores, catalog, [0, 1, 2], 4, 0.5)
        assert a == b

    def test_score_swap_changes_order_not_items(self):
        topo = line_topology(4)
        catalog = zipf_catalog(12)
        a = place_fog(topo, scores_for(topo, [3, 2, 1, 0]), catalog, [0, 1, 2], 4, 0.5)
        b = place_fog(topo, scores_for(topo, [1, 2, 3, 0]), catalog, [0, 1, 2], 4, 0.5)
        assert a.fog != b.fog
        items_a = sorted([a.items_at(v) for v in (0, 1, 2)])
        items_b = sorted([b.items_at(v) for v in (0, 1, 2)])
        assert items_a == items_b

    def test_invalid_arguments(self):
        topo = line_topology(3)
        catalog = zipf_catalog(5)
        scores = scores_for(topo, [1, 0, 0])
        with pytest.raises(ValueError, match="alpha"):
            place_fog(topo, scores, catalog, [0], 4, 1.5)
        with pytest.raises(ValueError, match="buffer"):
            place_fog(topo, scores, catalog, [0], 0, 0.5)
        with pytest.raises(ValueError, match="caching_nodes"):
            place_fog(topo, scores, catalog, [], 4, 0.5)


class TestBaselines:
    def test_greedy_popular_top_b_everywhere(self):
        assignment = place_greedy_popular(zipf_catalog(5), [0, 1, 2], 3)
        for v in (0, 1, 2):
            assert assignment.items_at(v) == (0, 1, 2)

    def test_greedy_popular_full_catalog(self):
        assignment = place_greedy_popular(zipf_catalog(4), [1], 9)
        assert assignment.items_at(1) == (0, 1, 2, 3)

    def test_greedy_popular_no_nodes(self):
        assignment = place_greedy_popular(zipf_catalog(4), [], 2)
        assert assignment.nodes() == []

    def test_noncollaborative_identical_caches_no_fog(self):
        assignment = place_noncollaborative(zipf_catalog(4), [0, 1, 2], 2)
        assert assignment.fog == ()
        for v in (0, 1, 2):
            assert assignment.items_at(v) == (0, 1)

    def test_noncollaborative_matches_greedy_contents(self):
        noncollab = place_noncollaborative(zipf_catalog(9), [0, 1, 2], 4)
        greedy = place_greedy_popular(zipf_catalog(9), [0, 1, 2], 4)
        for v in (0, 1, 2):
            assert sorted(noncollab.items_at(v)) == sorted(greedy.items_at(v))

    def test_single_node_matches_fog_alpha_one(self):
        topo = line_topology(3)
        catalog = zipf_catalog(7)
        scores = scores_for(topo, [1, 0, 0])
        noncollab = place_noncollaborative(catalog, [0], 3)
        fog = place_fog(topo, scores, catalog, [0], 3, 1.0)
        assert sorted(noncollab.items_at(0)) == sorted(fog.items_at(0))


class TestExport:
    def test_csv_shape(self):
        topo = from_edges([(10, 20), (20, 30)], origin_spec=30)
        scores = scores_for(topo, [2, 1, 0])
        assignment = place_fog(topo, scores, zipf_catalog(6), [0, 1], 3, 0.5)
        buffer = io.StringIO()
        export_assignment_csv(assignment, topo, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "node_id,scheme,slot_index,item_rank,portion"
        assert lines[1] == "10,fog,0,0,common"
        assert len(lines) == 1 + 3 + 3
        assert any(line.endswith("unique") for line in lines[1:])
