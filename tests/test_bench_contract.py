"""The benchmark's span tracer still fits the package.

``benchmarks/spans.py`` patches ``graph.bfs_shortest_paths``,
``PathCache.paths_from`` and the layer functions that ``fogcache.experiment``
imports.  A rename in the package would otherwise surface only in the
benchmark's traced run; here one traced iteration of a tiny plan must fill
every layer and account for its whole wall time.
"""
import importlib.util
import sys
from pathlib import Path

from fogcache import experiment
from fogcache.experiment import ExperimentPlan, default_topologies

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_iteration_accounts_for_its_wall(tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    plan = ExperimentPlan(default_topologies()[:1], repetitions=1,
                          interests_per_run=200)
    tracer = spans.Tracer([topology for _, topology in plan.topologies])

    def iteration():
        table = experiment.run_experiment(plan)
        return tracer.call(spans.EMIT_SPAN, experiment.emit_report, table, tmp_path)

    with spans.installed(tracer):
        written = tracer.call(spans.ROOT_SPAN, iteration)
    wall = tracer.spans[0].duration
    metrics = spans.layer_metrics(spans.Tracer(), tracer, wall,
                                  sum(path.stat().st_size for path in written))
    assert abs(spans.accounting_gap(metrics)) <= 1e-6 * wall
    # every wrapped layer ran under the name the metrics read
    for name in ("graph.paths_from_calls", "centrality.cbc_replication_calls",
                 "centrality.betweenness_s", "centrality.closeness_s",
                 "centrality.eigenvector_s", "placement.place_fog_calls",
                 "catalog.interests_drawn", "simulator.static_runs",
                 "simulator.lru_runs", "experiment.report_bytes"):
        assert metrics[name][0] > 0, name
