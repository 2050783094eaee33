"""Span tracing for the benchmark's traced run.

The wrappers are installed from outside the library and removed on exit:
they replace the layer functions that ``fogcache.experiment`` imports from
``centrality``, ``placement``, ``simulator`` and ``catalog``, plus
``graph.bfs_shortest_paths``, ``PathCache.paths_from`` and the synthetic
topology generator.  Each wrapped call records a span in memory.  A span's
self time is its duration minus its child spans, so a cold BFS inside
``PathCache.paths_from`` is filed under ``graph`` while a warm lookup stays
with the layer that asked for it.

``PathCache.paths_from`` is counted rather than spanned: it runs about a
million times per ``paper_default`` iteration, and a span per warm lookup
would cost more than the lookup.
"""
from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from fogcache import (catalog, centrality, experiment, graph, placement,
                      simulator, synthetic)

LAYER_MODULES = {m.__name__: m.__name__.rsplit(".", 1)[1]
                 for m in (centrality, placement, simulator, catalog)}
ROOT_SPAN = "experiment.iteration"
EMIT_SPAN = "experiment.emit_report"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int | None  # index of the plan topology the call worked on
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter recorder for one traced region.

    A call whose first argument is one of ``topologies`` carries that
    topology's index as its job id; any other call carries the job of the
    latest call that did.
    """

    def __init__(self, topologies=()):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._jobs = {id(t): i for i, t in enumerate(topologies)}
        self._job: int | None = None
        self.paths_from_calls = 0
        self.pathcache_hits = 0
        self.interests_drawn = 0
        self.simulations: list[tuple[bool, object, object]] = []

    def call(self, name, fn, *args, **kwargs):
        if args and id(args[0]) in self._jobs:
            self._job = self._jobs[id(args[0])]
        span = Span(len(self.spans), name,
                    self._open[-1].id if self._open else None, self._job)
        self.spans.append(span)
        self._open.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()

    def dump(self) -> list[list]:
        """Spans as [id, name, start_s, end_s, parent, job] rows, times
        relative to the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.id, s.name, s.start - t0, s.end - t0, s.parent, s.job]
                for s in self.spans]


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def _simulation(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        lru = bool(bound.arguments["lru_enabled"])
        metrics = tracer.call("simulator.lru" if lru else "simulator.static",
                              fn, *args, **kwargs)
        tracer.simulations.append((lru, bound.arguments["workload"], metrics))
        return metrics
    return wrapper


def _interests(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        workload = tracer.call("catalog.generate_interests", fn, *args, **kwargs)
        tracer.interests_drawn += len(workload.draws)
        return workload
    return wrapper


def _lookup(tracer: Tracer, fn):
    @functools.wraps(fn)
    def paths_from(cache, source):
        spans_before = len(tracer.spans)
        sp = fn(cache, source)
        tracer.paths_from_calls += 1
        # a miss runs bfs_shortest_paths, which opens a span
        tracer.pathcache_hits += len(tracer.spans) == spans_before
        return sp
    return paths_from


@contextmanager
def installed(tracer: Tracer):
    """Route the library's layer calls through ``tracer`` inside the block."""
    patches = []
    for name, fn in vars(experiment).items():
        if not inspect.isfunction(fn) or fn.__module__ not in LAYER_MODULES:
            continue
        if fn is simulator.run_simulation:
            wrapper = _simulation(tracer, fn)
        elif fn is catalog.generate_interests:
            wrapper = _interests(tracer, fn)
        else:
            wrapper = _spanned(tracer, f"{LAYER_MODULES[fn.__module__]}.{name}", fn)
        patches.append((experiment, name, wrapper))
    patches.append((graph, "bfs_shortest_paths",
                    _spanned(tracer, "graph.bfs", graph.bfs_shortest_paths)))
    patches.append((graph.PathCache, "paths_from",
                    _lookup(tracer, graph.PathCache.paths_from)))
    generate = _spanned(tracer, "synthetic.generate",
                        synthetic.generate_synthetic_topology)
    patches.append((synthetic, "generate_synthetic_topology", generate))
    patches.append((experiment, "generate_synthetic_topology", generate))

    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - covered[span.id] for span in spans]


def layer_metrics(setup: Tracer, run: Tracer, untraced_wall_s: float,
                  report_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from a traced set-up and a traced
    iteration whose root span is ``ROOT_SPAN``."""
    root = run.spans[0]
    assert root.name == ROOT_SPAN and root.parent is None
    self_s: dict[str, float] = defaultdict(float)
    calls = Counter()
    layer_s: dict[str, float] = defaultdict(float)
    for span, own in zip(run.spans, self_times(run.spans)):
        self_s[span.name] += own
        calls[span.name] += 1
        if span is not root and span.name != EMIT_SPAN:
            layer_s[span.name.split(".", 1)[0]] += own
    static = [(w, m) for lru, w, m in run.simulations if not lru]
    lru_runs = [(w, m) for lru, w, m in run.simulations if lru]
    hit_ratio = (run.pathcache_hits / run.paths_from_calls
                 if run.paths_from_calls else 0.0)
    return {
        "synthetic.generate_s": (sum(s.duration for s in setup.spans
                                     if s.name == "synthetic.generate"), "s"),
        "graph.bfs_s": (self_s["graph.bfs"], "s"),
        "graph.bfs_calls": (calls["graph.bfs"], "count"),
        "graph.paths_from_calls": (run.paths_from_calls, "count"),
        "graph.pathcache_hit_ratio": (hit_ratio, "ratio"),
        "centrality.cbc_replication_s": (self_s["centrality.cbc_replication"], "s"),
        "centrality.cbc_replication_calls": (calls["centrality.cbc_replication"], "count"),
        "centrality.betweenness_s": (self_s["centrality.betweenness_centrality"], "s"),
        "centrality.closeness_s": (self_s["centrality.closeness_centrality"], "s"),
        "centrality.eigenvector_s": (self_s["centrality.eigenvector_centrality"], "s"),
        "centrality.self_s": (layer_s["centrality"], "s"),
        "placement.place_fog_s": (self_s["placement.place_fog"], "s"),
        "placement.place_fog_calls": (calls["placement.place_fog"], "count"),
        "placement.self_s": (layer_s["placement"], "s"),
        "catalog.generate_interests_s": (self_s["catalog.generate_interests"], "s"),
        "catalog.interests_drawn": (run.interests_drawn, "count"),
        "catalog.self_s": (layer_s["catalog"], "s"),
        "simulator.static_s": (self_s["simulator.static"], "s"),
        "simulator.static_runs": (len(static), "count"),
        "simulator.static_pairs": (sum(len(set(w.draws)) for w, _ in static), "count"),
        "simulator.static_interests": (sum(len(w.draws) for w, _ in static), "count"),
        "simulator.lru_s": (self_s["simulator.lru"], "s"),
        "simulator.lru_runs": (len(lru_runs), "count"),
        "simulator.lru_interests": (sum(len(w.draws) for w, _ in lru_runs), "count"),
        "simulator.hops": (sum(sum(m.interests_received)
                               for _, _, m in run.simulations), "count"),
        "simulator.self_s": (layer_s["simulator"], "s"),
        "experiment.self_s": (self_s[ROOT_SPAN], "s"),
        "experiment.emit_report_s": (self_s[EMIT_SPAN], "s"),
        "experiment.report_bytes": (report_bytes, "count"),
        "bench.traced_wall_s": (root.duration, "s"),
        "bench.trace_overhead_frac": (root.duration / untraced_wall_s - 1.0, "ratio"),
    }


def accounting_gap(metrics: dict[str, tuple[float, str]]) -> float:
    """Traced wall time minus the sum of every layer's self time; zero up to
    float rounding when the spans nest properly."""
    parts = ("graph.bfs_s", "centrality.self_s", "placement.self_s",
             "catalog.self_s", "simulator.self_s", "experiment.self_s",
             "experiment.emit_report_s")
    return metrics["bench.traced_wall_s"][0] - sum(metrics[p][0] for p in parts)
