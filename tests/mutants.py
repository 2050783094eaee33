"""Mutant table: deliberate faults that the suite must catch.

Each row names a module of the ``fogcache`` package, a snippet that occurs in
the package exactly once, its replacement, and the ids of tests that fail
once the snippet is replaced.  A mutation runner applies one row at a time
to a copy of the tree and runs the named tests, each of which must fail;
``test_lint.py`` checks that every snippet is still there, once, and that
every named test still exists.
"""
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    kills: tuple[str, ...]


GRAPH = "tests/test_graph.py::"
CENTRALITY = "tests/test_centrality.py::"
SIMULATOR = "tests/test_simulator.py::"
SYNTHETIC = "tests/test_experiment.py::"
EXPERIMENT = "tests/test_experiment.py::TestRunExperiment::"
CATALOG = "tests/test_catalog.py::TestGenerateInterests::"

MUTANTS = (
    # PathCache hands out its stored rows
    Mutant("writable distance rows", "graph.py",
           ".reshape(-1)).toreadonly()", ".reshape(-1))",
           (GRAPH + "TestNarrowViews::test_views_are_read_only",)),
    Mutant("a new distance view per read", "graph.py",
           "return self._dist[self._valid(source)]",
           "return self._dist[self._valid(source)][:]",
           (GRAPH + "TestPathCacheMiss::test_racing_readers_share_entries",
            GRAPH + "TestNarrowViews::test_views_are_read_only",
            CENTRALITY + "TestLazyRows::test_lookup_builds_only_its_source",
            SIMULATOR + "TestPathCacheReuse::test_second_run_builds_nothing")),
    Mutant("a later BFS replaces a stored row", "graph.py",
           "self._rows.setdefault(s, (values, sigma[k * n:(k + 1) * n], order[start:end]))",
           "self._rows[s] = (values, sigma[k * n:(k + 1) * n], order[start:end])",
           (GRAPH + "TestPathCacheMiss::test_store_keeps_rows_stored_while_it_ran",)),
    Mutant("a miss runs the block that starts at its source", "graph.py",
           "start = self._valid(source) - source % _BATCH", "start = self._valid(source)",
           (GRAPH + "TestPathCacheMiss::test_fills_the_aligned_block",
            CENTRALITY + "TestLazyRows::test_sigma_and_order_rows_stay_lazy")),
    # rows kept for the cache's readers only, in arrays sized to them
    Mutant("the reader filter dropped", "graph.py",
           "and (readers is None or s in readers)]", "]",
           (CENTRALITY + "TestReaders::test_betweenness_keeps_rows_for_readers_only",
            CENTRALITY + "TestReaders::test_scores_bit_identical[diamonds70]",
            CENTRALITY + "TestReaders::test_memory_stays_under_half_of_every_row")),
    Mutant("a miss does not make its source a reader", "graph.py",
           "self._readers.add(source)", "pass",
           (CENTRALITY + "TestReaders::test_read_outside_readers_runs_its_block",)),
    Mutant("a compact row written at its batch position", "graph.py",
           "sigma[row * n + keys % n] = index[1:]", "sigma[keys] = index[1:]",
           (CENTRALITY + "TestReaders::test_betweenness_keeps_rows_for_readers_only",
            CENTRALITY + "TestReaders::test_read_outside_readers_runs_its_block",
            CENTRALITY + "TestReaders::test_scores_bit_identical[branching3]")),
    # next-hop trees
    Mutant("int8 next-hop trees", "graph.py",
           "dtype=np.min_scalar_type(-dist.size))", "dtype=np.int8)",
           (GRAPH + "TestNarrowViews::test_reads_match_oracle[path300]",
            GRAPH + "TestNarrowViews::test_reads_match_oracle[two_parts200]",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle_past_int8[line300-False]")),
    Mutant("the last closer neighbour", "graph.py",
           "np.diff(self._tails.take(closer), prepend=-1)",
           "np.diff(self._tails.take(closer), append=dist.size)",
           (GRAPH + "TestNextHops::test_smallest_predecessor",
            SIMULATOR + "TestRouteInterest::test_next_hop_tie_smallest_id")),
    # the packed-bitset all-sources BFS over CSR arrays that farness and the
    # distance pass share
    Mutant("farness slot 0 dropped", "graph.py",
           "for j in range(cut)]", "for j in range(1, cut)]",
           (GRAPH + "TestFarness::test_star_with_more_than_64_leaves",
            GRAPH + "TestFarness::test_hubs_joined_to_every_leaf",
            GRAPH + "TestDistances::test_memory_stays_under_four_bytes_per_pair")),
    Mutant("farness rows one word short", "graph.py",
           "reach = np.zeros((n, (n + 63) // 64)", "reach = np.zeros((n, n // 64)",
           (GRAPH + "TestFarness::test_matches_plain_bfs",
            GRAPH + "TestFarness::test_sparse_rows_of_several_words[1-65]",
            GRAPH + "TestDistances::test_rows_match_plain_bfs")),
    Mutant("farness run offsets not rebased", "graph.py",
           "seg[a:b] - seg[a])", "seg[a:b])",
           (GRAPH + "TestFarness::test_hubs_joined_to_every_leaf",
            GRAPH + "TestFarness::test_sparse_rows_of_several_words[1-64]")),
    # the distance pass: bit-sliced round stamps unpacked in chunks of rows
    Mutant("a plane that starts one round late", "graph.py",
           "if k == 1 << len(planes):", "if k > 1 << len(planes):",
           (GRAPH + "TestDistances::test_rows_match_plain_bfs",
            GRAPH + "TestNarrowViews::test_reads_match_oracle[path300]",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle[True]")),
    Mutant("a chunk's last row skipped", "graph.py",
           "rank[lo:lo + step], stamps[lo:lo + step]",
           "rank[lo:lo + step - 1], stamps[lo:lo + step - 1]",
           (GRAPH + "TestDistances::test_rows_match_plain_bfs",
            GRAPH + "TestDistances::test_memory_stays_under_four_bytes_per_pair")),
    # the generator's array passes: the cell list, and the giant component
    # and origin read off the farness pass
    Mutant("giant tie to the larger id", "synthetic.py",
           "reach[size.argmax()]", "reach[len(size) - 1 - size[::-1].argmax()]",
           (SYNTHETIC + "TestSynthetic::test_matches_naive_pipeline",)),
    Mutant("a diagonal neighbour cell dropped", "synthetic.py",
           "side - 1, side, side + 1])", "side - 1, side])",
           (SYNTHETIC + "TestGeometricEdges::test_matches_pair_scan",
            SYNTHETIC + "TestGeneratedGraphsPinned::test_default_topologies")),
    Mutant("<= -> < in the radius test", "synthetic.py",
           "within = dist2 <= r2", "within = dist2 < r2",
           (SYNTHETIC + "TestGeometricEdges::test_matches_pair_scan",
            SYNTHETIC + "TestGeometricEdges::test_cell_edges_and_exact_radius_kept")),
    Mutant("the ** re-check dropped", "synthetic.py",
           "dist2[p] = (xi - xj) ** 2 + (yi - yj) ** 2", "dist2[p] = dist2[p]",
           (SYNTHETIC + "TestGeometricEdges::test_matches_pair_scan",)),
    # bounded route walks: the stacked forward walk and the LRU providers walk
    Mutant("the forward walk one step short", "simulator.py",
           "-np.arange(1, hops[0])", "-np.arange(2, hops[0] + 1)",
           (SIMULATOR + "TestRouteInterest::test_served_by_origin_with_forward",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle[False]",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle[True]",
            SIMULATOR + "TestCbcAgreement::test_forward_total_is_cbc_total",
            SIMULATOR + "TestCbcAgreement::test_tie_free_trees_agree_per_node")),
    Mutant("the LRU walk one step short", "simulator.py",
           "for _ in range(best - 1):\n                if v in provider_set",
           "for _ in range(best - 2):\n                if v in provider_set",
           (SIMULATOR + "TestRunSimulation::test_lru_insertion_serves_repeat",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle[True]")),
    Mutant("the walk's raise dropped", "simulator.py",
           "if missed.size:", "if False:",
           (SIMULATOR + "TestRunSimulation::test_cyclic_next_hop_tree_raises[False]",
            SIMULATOR + "TestRunSimulation::test_cyclic_next_hop_tree_raises[True]")),
    # static server choice as array passes
    Mutant("holder ties go to the larger id", "simulator.py",
           "best = d.argmin(axis=1)", "best = s - 1 - d[:, ::-1].argmin(axis=1)",
           (SIMULATOR + "TestRouteInterest::test_nearest_holder_tie_smaller_id",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle[False]")),
    Mutant("the self-served mark dropped", "simulator.py",
           "own = hops == 0", "own = np.zeros(hops.size, dtype=bool)",
           (SIMULATOR + "TestRouteInterest::test_self_served",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle_edge_cases[origin_consumer-False]",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle_edge_cases[self_served-False]",
            SIMULATOR + "TestCbcAgreement::test_forward_total_is_cbc_total")),
    Mutant("UNREACHABLE read as the nearest distance", "simulator.py",
           'dist = dist.view(f"u{dist.itemsize}")', "dist = dist.view(dist.dtype)",
           (SIMULATOR + "TestRouteInterest::test_unreachable",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle[False]",
            SIMULATOR + "TestCbcAgreement::test_forward_total_is_cbc_total")),
    # one nearest-holder rule and one draw check for both branches
    Mutant("an LRU consumer never serves itself", "simulator.py",
           "if best == 0:", "if best < 0:",
           (SIMULATOR + "TestRunSimulation::test_matches_naive_oracle_edge_cases[origin_consumer-True]",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle_edge_cases[self_served-True]")),
    Mutant("ranks past int64 accepted", "simulator.py",
           "if not 0 <= item < 2 ** 63:", "if not 0 <= item:",
           (SIMULATOR + "TestRunSimulation::test_rank_outside_int64_rejected[9223372036854775808-False]",
            SIMULATOR + "TestRunSimulation::test_rank_outside_int64_rejected[9223372036854775808-True]")),
    # the LRU loop reads unsigned rows and counts its routes once
    Mutant("the LRU loop reads signed rows", "simulator.py",
           'row = rows[c] = row.cast("B").cast(row.format.upper())', "row = rows[c] = row",
           (SIMULATOR + "TestRunSimulation::test_matches_naive_oracle_with_unreachable_holders[int8-True]",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle_with_unreachable_holders[int16-True]",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle[True]")),
    Mutant("a route key without its server", "simulator.py",
           "key = c * n + server", "key = c * n",
           (SIMULATOR + "TestRunSimulation::test_matches_naive_oracle[True]",
            SIMULATOR + "TestRunSimulation::test_lru_insertion_serves_repeat",
            SIMULATOR + "TestRunSimulation::test_matches_naive_oracle_with_unreachable_holders[int8-True]")),
    # one demand per repetition, shared by its static cells
    Mutant("the demand built once per topology", "experiment.py",
           "demand = None  # the static cells' one demand",
           "demand = locals().get('demand')  # the static cells' one demand",
           (EXPERIMENT + "test_one_demand_per_repetition[schemes0]",
            EXPERIMENT + "test_rerun_byte_identical")),
    Mutant("the demand refusal check dropped", "simulator.py",
           "if demand is not None and (demand.cache is not cache",
           "if False and (demand.cache is not cache",
           (SIMULATOR + "TestDemand::test_demand_of_another_input_refused[cache-False]",
            SIMULATOR + "TestDemand::test_demand_of_another_input_refused[consumers-True]",
            SIMULATOR + "TestDemand::test_demand_of_another_input_refused[workload-False]")),
    # interest draws: randrange's rejection loop on the same stream
    Mutant("r > n_cons in the draw loop", "catalog.py",
           "while r >= n_cons:", "while r > n_cons:",
           (CATALOG + "test_matches_randrange_oracle",)),
    Mutant("getrandbits(k - 1)", "catalog.py",
           "k = n_cons.bit_length()", "k = n_cons.bit_length() - 1",
           (CATALOG + "test_matches_randrange_oracle",
            CATALOG + "test_consumers_drawn_uniformly")),
)
