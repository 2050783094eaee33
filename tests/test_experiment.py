import hashlib
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fogcache import experiment
from fogcache.experiment import (CSV_COLUMNS, KNOBS, SCHEMES, ExperimentPlan,
                                 cell_inputs, cell_roles, default_plan,
                                 default_topologies, derive_seed, emit_report,
                                 mean_metric, parse_config, plan_from_config,
                                 run_experiment, summary_text, table_to_csv)
from fogcache.graph import connected_components, from_edges, serialize_topology
from fogcache.synthetic import _geometric_edges, generate_synthetic_topology
from oracles import (adjacency_sets, geometric_pair_scan,
                     naive_synthetic_topology, plain_bfs_dist)


def small_topology(seed=3):
    return generate_synthetic_topology("geometric", 30, 0.35, seed)


def tiny_plan(**overrides):
    defaults = dict(topologies=(("tiny", small_topology()),),
                    schemes=("cbc", "no_fog"), alphas=(0.5,), repetitions=2,
                    interests_per_run=200, buffer_items=2, catalog_size=20)
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestSynthetic:
    def test_grid_3x3(self):
        topo = generate_synthetic_topology("grid", 9, 0.0, seed=0)
        assert topo.node_count == 9
        assert topo.edge_count == 12

    def test_geometric_large_radius_complete(self):
        topo = generate_synthetic_topology("geometric", 8, 1.5, seed=4)
        assert topo.edge_count == 8 * 7 // 2

    def test_same_seed_identical(self):
        a = generate_synthetic_topology("geometric", 40, 0.3, seed=9)
        b = generate_synthetic_topology("geometric", 40, 0.3, seed=9)
        assert a == b

    def test_erdos_renyi_connected_giant(self):
        topo = generate_synthetic_topology("erdos_renyi", 50, 0.15, seed=2)
        assert len(connected_components(topo)) == 1

    def test_origin_is_most_peripheral(self):
        # 3x3 grid: the four corners tie on total distance; corner 0 wins
        topo = generate_synthetic_topology("grid", 9, 0.0, seed=0)
        assert topo.original_ids[topo.origin] == 0

    # n = 150 and 300 give reach rows of several uint64 words
    @pytest.mark.parametrize("kind,n,density", [("erdos_renyi", 40, 0.06),
                                                ("geometric", 60, 0.16),
                                                ("geometric", 150, 0.11),
                                                ("geometric", 300, 0.08)])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_origin_is_oracle_argmax_farness(self, kind, n, density, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            topo = generate_synthetic_topology(kind, n, density, seed)
        assert topo.node_count < n  # trimmed to the giant component
        adj = adjacency_sets(topo)
        totals = [sum(plain_bfs_dist(adj, v).values()) for v in range(topo.node_count)]
        assert topo.origin == max(range(topo.node_count),
                                  key=lambda v: (totals[v], -v))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["geometric", "grid", "erdos_renyi"]),
           st.integers(min_value=2, max_value=80),
           st.floats(min_value=0, max_value=1.5),
           st.integers(min_value=0, max_value=2**32))
    # two 3-node components, (0, 1, 3) and (2, 4, 5): the one holding 0 wins
    @example("geometric", 6, 0.4, 39)
    @example("geometric", 5, 0.0, 0)  # no edges
    def test_matches_naive_pipeline(self, kind, n, density, seed):
        try:
            expected = naive_synthetic_topology(kind, n, density, seed)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                generate_synthetic_topology(kind, n, density, seed)
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            topo = generate_synthetic_topology(kind, n, density, seed)
        assert topo == expected
        assert {type(v) for v in (topo.origin, *topo.original_ids,
                                  *(w for row in topo.adjacency for w in row))} == {int}
        assert len(caught) == (expected.node_count < 0.95 * n)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            generate_synthetic_topology("torus", 9, 0.0, seed=0)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="node_count"):
            generate_synthetic_topology("grid", 1, 0.0, seed=0)

    def test_empty_edge_set_rejected(self):
        with pytest.raises(ValueError, match="empty edge set"):
            generate_synthetic_topology("geometric", 5, 0.0, seed=0)

    @pytest.mark.parametrize("kind", ["geometric", "erdos_renyi"])
    @pytest.mark.parametrize("density", [math.nan, -0.1, -1.5])
    def test_nan_or_negative_density_rejected(self, kind, density):
        with pytest.raises(ValueError, match="density"):
            generate_synthetic_topology(kind, 20, density, seed=0)

    def test_small_giant_component_warns(self):
        with pytest.warns(UserWarning, match="giant component"):
            generate_synthetic_topology("geometric", 60, 0.12, seed=1)

    def test_default_topologies_shape(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            topos = default_topologies()
        assert [lbl for lbl, _ in topos] == ["topology1", "topology2",
                                             "topology3"]
        for _, t in topos:
            assert t.node_count >= 320
            mean_degree = 2 * t.edge_count / t.node_count
            assert 5.0 <= mean_degree <= 7.0
            assert len(connected_components(t)) == 1
        assert [t.original_ids[t.origin] for _, t in topos] == [202, 44, 24]


def _short_sha(topology):
    return hashlib.sha256(serialize_topology(topology).encode()).hexdigest()[:12]


# radii at which the cell count k = floor(1 / (r (1 + 1e-9))) steps, and their
# float neighbours
_STEP_RADII = [r for m in range(1, 40)
               for edge in (1 / m, 1 / m / (1 + 1e-9))
               for r in (math.nextafter(edge, 0), edge, math.nextafter(edge, 1))]


# points that lift n to 16, so the cap on the cell count stays above 4
_FILLER = [(i / 16, 0.0) for i in range(14)]


@st.composite
def _point_sets(draw):
    """Up to 400 seeded points, uniform or on a lattice of cell edges, with a
    radius from the fixed set, a cell-count step or anywhere in [0, 1.5]."""
    n = draw(st.integers(min_value=2, max_value=400))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    lattice = draw(st.integers(min_value=0, max_value=12))
    if lattice:
        points = [(rng.randrange(lattice) / lattice, rng.randrange(lattice) / lattice)
                  for _ in range(n)]
    else:
        points = [(rng.random(), rng.random()) for _ in range(n)]
    radius = draw(st.one_of(
        st.sampled_from([0.0, 1e-4, 0.5, 1 / math.sqrt(2), 1.5]),
        st.sampled_from(_STEP_RADII),
        st.floats(min_value=0, max_value=1.5)))
    return points, radius


def _pairs(points, radius):
    """The cell list's pairs, in the pair scan's (i, j) order."""
    return sorted(map(tuple, _geometric_edges(points, radius).tolist()))


class TestGeometricEdges:
    @settings(max_examples=80, deadline=None)
    @given(_point_sets())
    @example(([(0.0, 0.0), (0.5, 0.0)], 0.5))
    @example(([(0.0, 0.0), (0.0, 0.0), (0.3, 0.3)], 0.0))
    @example(([(a / 7, b / 7) for a in range(7) for b in range(7)], 1 / 7))
    # pairs whose cells would lie two apart if the cells were exactly r wide
    # (rounding of x * k) or narrower than r (r just above 1/4)
    @example(([(0.24999999999999997, 0.5), (0.5, 0.5)] + _FILLER, 0.25))
    @example(([(0.2499999999999, 0.5), (0.5 + 1e-10, 0.5)] + _FILLER,
              0.25 * (1 + 0.5e-9)))
    # a pair exactly `radius` apart: glibc 2.36's pow rounds its square one
    # unit above x * x, so the pair scan's ** leaves out what x * x keeps
    @example(([(0.0, 0.5), (0.12967700716400382, 0.5)], 0.12967700716400382))
    def test_matches_pair_scan(self, case):
        points, radius = case
        assert _pairs(points, radius) == geometric_pair_scan(points, radius)

    def test_cell_edges_and_exact_radius_kept(self):
        # radius 7/32 over 40 points gives 4 cells of width 1/4: the lattice
        # points lie on cell edges, and each offset point lies exactly 7/32
        # (in exact arithmetic) from a lattice point across a cell edge
        r = 7 / 32
        lattice = [(a / 4, b / 4) for a in range(4) for b in range(4)]
        points = (lattice + [(x - r, y) for x, y in lattice if x > r]
                  + [(x, y - r) for x, y in lattice if y > r])
        assert len(points) == 40
        edges = _pairs(points, r)
        assert edges == geometric_pair_scan(points, r)
        exact = Fraction(r) ** 2
        at_radius = [(i, j) for i, j in combinations(range(len(points)), 2)
                     if (Fraction(points[i][0]) - Fraction(points[j][0])) ** 2
                     + (Fraction(points[i][1]) - Fraction(points[j][1])) ** 2 == exact]
        assert len(at_radius) >= 24
        assert set(at_radius) <= set(edges)


class TestGeneratedGraphsPinned:
    """sha256 prefixes of ``serialize_topology``: the default plan's graphs
    and the n = 1000 / 2000 graphs of the benchmark's lru_churn and
    cbc_n2000 workloads."""

    def test_default_topologies(self):
        # their origins (202, 44, 24) are pinned by test_default_topologies_shape
        assert [_short_sha(t) for _, t in default_topologies()] == [
            "36bb9dbd3ffe", "d902781f7d55", "40a3f3c2af8b"]

    @pytest.mark.parametrize("n,sha,nodes,edges,origin", [
        (1000, "2d254e053a00", 989, 2984, 653),
        (2000, "f8df68e062f9", 1980, 6074, 214)])
    def test_scaled_geometric(self, n, sha, nodes, edges, origin):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            topo = generate_synthetic_topology("geometric", n,
                                               0.078 * math.sqrt(330 / n), 6)
        assert (_short_sha(topo), topo.node_count, topo.edge_count,
                topo.original_ids[topo.origin]) == (sha, nodes, edges, origin)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(7, 0, 0, "roles")
        assert a == derive_seed(7, 0, 0, "roles")
        assert a != derive_seed(7, 0, 0, "workload")
        assert a != derive_seed(7, 0, 1, "roles")
        assert a != derive_seed(8, 0, 0, "roles")

    def test_scheme_and_alpha_not_in_key(self):
        # the signature simply has no scheme/alpha inputs: cells are paired
        import inspect
        params = inspect.signature(derive_seed).parameters
        assert set(params) == {"master_seed", "topology_index", "repetition",
                               "purpose"}


class TestRunExperiment:
    def test_single_cell_row_counts(self):
        plan = tiny_plan(schemes=("cbc",), repetitions=1)
        table = run_experiment(plan)
        assert len(table.rows) == 1
        assert len(table.aggregates) == 2  # mean + stddev

    def test_full_grid_row_counts(self):
        plan = tiny_plan(schemes=("cbc", "betweenness", "no_fog"),
                         alphas=(0.25, 0.5), repetitions=3)
        table = run_experiment(plan)
        assert len(table.rows) == 1 * 3 * 2 * 3
        assert len(table.aggregates) == 2 * (1 * 3 * 2)

    def count_layer_calls(self, monkeypatch, plan):
        calls = {"cbc_replication": 0, "place_fog": 0, "static": 0, "lru": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def simulation(*args, lru_enabled, **kwargs):
            calls["lru" if lru_enabled else "static"] += 1
            return run_simulation(*args, lru_enabled=lru_enabled, **kwargs)

        run_simulation = experiment.run_simulation
        for name in ("cbc_replication", "place_fog"):
            monkeypatch.setattr(experiment, name,
                                counted(name, getattr(experiment, name)))
        monkeypatch.setattr(experiment, "run_simulation", simulation)
        run_experiment(plan)
        return calls

    def test_dispatch_calls_layers_through_module(self, monkeypatch):
        # per repetition: cbc once per alpha, place_fog once per ranked
        # scheme and alpha, lru and no_fog simulated once
        calls = self.count_layer_calls(
            monkeypatch, tiny_plan(schemes=SCHEMES, alphas=(0.25, 0.75)))
        assert calls == {"cbc_replication": 2 * 2, "place_fog": 2 * 5 * 2,
                         "static": 2 * (5 * 2 + 1), "lru": 2}

    def test_cells_sharing_a_layout_measured_once(self, monkeypatch):
        # at buffer 2, alpha 0.5 and 0.75 both give common 1 and unique 1
        calls = self.count_layer_calls(
            monkeypatch, tiny_plan(schemes=SCHEMES, alphas=(0.5, 0.75)))
        assert calls == {"cbc_replication": 2, "place_fog": 2 * 5,
                         "static": 2 * (5 + 1), "lru": 2}

    @pytest.mark.parametrize("schemes", [SCHEMES, ("lru_social_unaware", "no_fog"),
                                         ("lru_social_unaware",)])
    def test_one_demand_per_repetition(self, monkeypatch, schemes):
        # a repetition's static cells share one demand, built at the first of
        # them; an LRU-only plan builds none
        built = []

        class Counted(experiment.Demand):
            def __init__(self, cache, consumers, workload):
                built.append(workload)
                super().__init__(cache, consumers, workload)

        monkeypatch.setattr(experiment, "Demand", Counted)
        plan = tiny_plan(schemes=schemes, alphas=(0.25, 0.75), repetitions=3)
        run_experiment(plan)
        static = set(schemes) != {"lru_social_unaware"}
        assert built == [cell_inputs(plan, 0, rep)[1]
                         for rep in range(3) if static]

    def test_each_alpha_matches_a_plan_of_its_own(self):
        # at buffer 2 these give two distinct layouts, (0, 2) and (1, 1)
        alphas = (0.25, 0.5, 0.75)
        rows = run_experiment(tiny_plan(schemes=SCHEMES, alphas=alphas)).rows
        for alpha in alphas:
            alone = run_experiment(tiny_plan(schemes=SCHEMES, alphas=(alpha,)))
            assert [r for r in rows if r["alpha"] == alpha] == alone.rows

    def test_no_fog_needs_no_cbc(self, monkeypatch):
        calls = self.count_layer_calls(monkeypatch, tiny_plan(schemes=("no_fog",)))
        assert calls == {"cbc_replication": 0, "place_fog": 0, "static": 2,
                         "lru": 0}

    def test_paired_workload_across_schemes(self):
        table = run_experiment(tiny_plan())
        by_scheme = {}
        for row in table.rows:
            by_scheme.setdefault(row["scheme"], []).append(
                (row["repetition"], row["seed"], row["generated"]))
        assert by_scheme["cbc"] == by_scheme["no_fog"]

    def test_aggregate_mean_matches_members(self):
        table = run_experiment(tiny_plan(repetitions=4))
        for agg in table.aggregates:
            if agg["repetition"] != "mean":
                continue
            members = [r["hit_rate"] for r in table.rows
                       if r["topology"] == agg["topology"]
                       and r["scheme"] == agg["scheme"]
                       and r["alpha"] == agg["alpha"]]
            assert agg["hit_rate"] == pytest.approx(
                math.fsum(members) / len(members), abs=1e-12)

    def test_stddev_row_sample_formula(self):
        table = run_experiment(tiny_plan(repetitions=3))
        for agg in table.aggregates:
            if agg["repetition"] != "stddev":
                continue
            members = [r["hit_rate"] for r in table.rows
                       if r["topology"] == agg["topology"]
                       and r["scheme"] == agg["scheme"]
                       and r["alpha"] == agg["alpha"]]
            mu = sum(members) / len(members)
            expected = math.sqrt(sum((v - mu) ** 2 for v in members)
                                 / (len(members) - 1))
            assert agg["hit_rate"] == pytest.approx(expected, abs=1e-12)

    def test_rerun_byte_identical(self):
        plan = tiny_plan()
        assert table_to_csv(run_experiment(plan)) == table_to_csv(
            run_experiment(plan))

    def test_worker_count_does_not_change_bytes(self):
        topologies = (("a", small_topology(1)), ("b", small_topology(2)))
        serial = tiny_plan(topologies=topologies, workers=1)
        parallel = tiny_plan(topologies=topologies, workers=2)
        assert table_to_csv(run_experiment(serial)) == table_to_csv(
            run_experiment(parallel))

    def test_pool_never_wider_than_topology_list(self, monkeypatch):
        # the fork start method launches every worker up front, so a wider
        # pool would fork processes that never get a topology
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_experiment imports the pool class only when it opens a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        topologies = (("a", small_topology(1)), ("b", small_topology(2)))
        wide = run_experiment(tiny_plan(topologies=topologies, workers=64))
        assert opened == [2]
        assert table_to_csv(wide) == table_to_csv(
            run_experiment(tiny_plan(topologies=topologies, workers=1)))

    def test_serial_import_loads_no_pool_modules(self):
        # the pool modules load only when run_experiment opens a pool
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run(
            [sys.executable, "-c", "import sys, fogcache, fogcache.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
            env=env, capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"

    @pytest.mark.parametrize("schemes", [("cbc", "betweenness", "no_fog"),
                                         ("betweenness", "no_fog"),
                                         ("lru_social_unaware",)])
    def test_cache_keeps_rows_of_cbc_consumers(self, monkeypatch, schemes):
        # the union of every repetition's consumers when the plan scores cbc,
        # no source otherwise
        built = []

        class Recorded(experiment.PathCache):
            def __init__(self, topology, readers=None):
                built.append(readers)
                super().__init__(topology, readers)

        monkeypatch.setattr(experiment, "PathCache", Recorded)
        plan = tiny_plan(schemes=schemes, repetitions=3)
        run_experiment(plan)
        consumers = [set(cell_inputs(plan, 0, rep)[0].consumers) for rep in range(3)]
        assert len(set.union(*consumers)) > max(map(len, consumers))
        assert built == [set.union(*consumers) if "cbc" in schemes else ()]

    def test_adding_scheme_keeps_other_cells(self):
        base = run_experiment(tiny_plan(schemes=("cbc",)))
        wider = run_experiment(tiny_plan(schemes=("cbc", "betweenness")))
        base_rows = [r for r in base.rows if r["scheme"] == "cbc"]
        wider_rows = [r for r in wider.rows if r["scheme"] == "cbc"]
        assert base_rows == wider_rows

    @pytest.mark.parametrize("field,name", [("topologies", "topology"),
                                            ("schemes", "scheme"),
                                            ("alphas", "alpha")])
    def test_empty_plan_axis_rejected(self, field, name):
        # an empty alpha list would write a header-only results.csv
        with pytest.raises(ValueError, match=f"plan needs at least one {name}$"):
            tiny_plan(**{field: ()})

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError, match="unknown schemes"):
            tiny_plan(schemes=("cbc", "mystery"))
        with pytest.raises(ValueError, match="repetitions"):
            tiny_plan(repetitions=0)
        with pytest.raises(ValueError, match="alpha"):
            tiny_plan(alphas=(1.5,))
        with pytest.raises(ValueError, match="workers"):
            tiny_plan(workers=0)

    @pytest.mark.parametrize("overrides,message", [
        (dict(buffer_items=0), "buffer_items"),
        (dict(catalog_size=0), "catalog size"),
        (dict(zipf_exponent=0.0), "exponent"),
        (dict(interests_per_run=-1), "interests_per_run"),
        (dict(consumer_frac=1.5), "role fractions"),
        (dict(consumer_frac=0.7, provider_frac=0.6), "role fractions")])
    def test_bad_knobs_rejected_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_plan(**overrides)

    def test_cell_roles_are_cell_inputs_roles(self):
        plan = tiny_plan(topologies=(("a", small_topology(1)),
                                     ("b", small_topology(2))), repetitions=4)
        for index in range(2):
            for rep in range(4):
                assert cell_roles(plan, index, rep) == cell_inputs(plan, index, rep)[0]
        with pytest.raises(ValueError, match="repetition must be >= 0"):
            cell_roles(plan, 0, -1)

    def test_cells_seeded_by_cell_inputs(self, monkeypatch):
        plan = tiny_plan(topologies=(("a", small_topology(1)),
                                     ("b", small_topology(2))))
        seen = []

        def recorded(plan, topology_index, repetition):
            seen.append((topology_index, repetition))
            return cell_inputs(plan, topology_index, repetition)

        monkeypatch.setattr(experiment, "cell_inputs", recorded)
        rows = run_experiment(plan).rows
        assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for row in rows:
            index = 0 if row["topology"] == "a" else 1
            roles, workload = cell_inputs(plan, index, row["repetition"])
            assert row["seed"] == workload.seed
            assert row["generated"] == len(workload.draws)
            assert roles.seed == derive_seed(7, index, row["repetition"], "roles")

    def test_duplicates_rejected(self):
        # a repeated alpha or scheme would double its rows in the aggregates,
        # a repeated label would pool two topologies into one mean
        twins = (("x", small_topology(1)), ("x", small_topology(2)))
        for overrides, name in ((dict(alphas=(0.5, 0.5)), "alphas"),
                                (dict(schemes=("cbc", "no_fog", "cbc")), "schemes"),
                                (dict(topologies=twins), "topology labels")):
            with pytest.raises(ValueError, match=f"duplicate {name}"):
                tiny_plan(**overrides)


class TestCsvAndSummary:
    def test_csv_header_and_shape(self):
        table = run_experiment(tiny_plan(repetitions=1))
        lines = table_to_csv(table).splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(table.rows) + len(table.aggregates)
        assert any(",mean," in line for line in lines)
        assert any(",stddev," in line for line in lines)

    def test_empty_table_header_only(self):
        from fogcache.experiment import ResultTable
        assert table_to_csv(ResultTable(rows=[], aggregates=[])) == \
            ",".join(CSV_COLUMNS) + "\n"

    def test_mean_metric_lookup(self):
        table = run_experiment(tiny_plan(repetitions=1))
        value = mean_metric(table, "tiny", "cbc", 0.5)
        assert 0.0 <= value <= 1.0
        with pytest.raises(KeyError):
            mean_metric(table, "tiny", "cbc", 0.9)

    def test_summary_matrix_mentions_all_cells(self):
        table = run_experiment(tiny_plan())
        text = summary_text(table)
        assert "mean hit_rate" in text and "mean success_rate" in text
        assert "cbc" in text and "no_fog" in text and "tiny" in text

    def test_emit_report_files(self, tmp_path):
        table = run_experiment(tiny_plan(repetitions=1))
        written = emit_report(table, tmp_path, gnuplot=True)
        names = {p.name for p in written}
        assert "results.csv" in names and "summary.txt" in names
        assert "hit_rate_tiny.dat" in names
        assert (tmp_path / "results.csv").read_text() == table_to_csv(table)


class TestConfig:
    def test_parse_roundtrip(self):
        config = parse_config("""
            # comment
            schemes = cbc, no_fog
            alphas = 0.25, 0.5
            repetitions = 2
            interests = 100
            buffer_items = 2
            catalog_size = 10
            master_seed = 3
            output_dir = out
        """)
        plan, output_dir = plan_from_config(config)
        assert plan.schemes == ("cbc", "no_fog")
        assert plan.alphas == (0.25, 0.5)
        assert plan.repetitions == 2
        assert plan.interests_per_run == 100
        assert plan.master_seed == 3
        assert output_dir == "out"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("buffre_items = 3")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("just words")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            plan_from_config(parse_config("repetitions = soon"))

    @pytest.mark.parametrize("key", sorted(KNOBS))
    def test_empty_knob_rejected(self, key):
        # a key given empty does not fall back to its default
        message = re.escape(f"config key {key!r}: invalid value ''")
        with pytest.raises(ValueError, match=message):
            plan_from_config(parse_config(f"{key} ="))
        with pytest.raises(ValueError, match=message):
            plan_from_config({key: ""})

    @pytest.mark.parametrize("text", ["cbc,", "cbc,,no_fog", " , "])
    def test_empty_list_item_rejected(self, text):
        with pytest.raises(ValueError, match="config key 'schemes': invalid value"):
            plan_from_config({"schemes": text})

    @pytest.mark.parametrize("key", ["topologies", "output_dir"])
    def test_empty_path_rejected(self, key):
        with pytest.raises(ValueError, match=f"config key '{key}': empty path"):
            plan_from_config(parse_config(f"{key} ="))

    def test_topology_files_loaded(self, tmp_path):
        path = tmp_path / "line.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        config = parse_config(f"topologies = {path.name}\nrepetitions = 1")
        plan, _ = plan_from_config(config, base_dir=tmp_path)
        assert plan.topologies[0][0] == "line"
        assert plan.topologies[0][1].node_count == 4

    def test_bad_knob_rejected_by_plan_from_config(self, monkeypatch):
        # the plan itself refuses, so no experiment starts on it
        monkeypatch.setattr(experiment, "default_topologies",
                            lambda: (("tiny", small_topology()),))
        with pytest.raises(ValueError, match="buffer_items"):
            plan_from_config({"buffer_items": "0"})

    def test_shared_stems_labelled_by_path(self, tmp_path):
        for sub in ("a", "b", "c"):
            (tmp_path / sub).mkdir()
        for name in ("a/t.txt", "b/t.txt", "c/u.txt"):
            (tmp_path / name).write_text("0 1\n1 2\n")
        plan, _ = plan_from_config({"topologies": "a/t.txt, b/t.txt,c/u.txt"},
                                   base_dir=tmp_path)
        assert [label for label, _ in plan.topologies] == ["a/t.txt", "b/t.txt", "u"]

    def test_defaults_without_topologies(self):
        plan, output_dir = plan_from_config({})
        assert len(plan.topologies) == 3
        assert output_dir == "results"
        assert plan == default_plan()


class TestDefaultPlanShape:
    def test_defaults_match_protocol(self):
        plan = default_plan()
        assert plan.alphas == (0.25, 0.5, 0.75)
        assert plan.repetitions == 10
        assert plan.catalog_size == 100
        assert plan.zipf_exponent == 1.0
        assert plan.consumer_frac == 0.3
        assert plan.provider_frac == 0.3
