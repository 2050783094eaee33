"""Node centralities: the four classic measures plus content-based centrality
in exact (per-item placement) and scalable replica-class forms."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import UNREACHABLE, PathCache, Topology


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""


@dataclass(frozen=True)
class CentralityScores:
    kind: str
    raw: tuple[float, ...]
    normalized: tuple[float, ...]


def normalize_minmax(values) -> tuple[float, ...]:
    """(x - min) / (max - min); all zeros when every value is equal."""
    values = tuple(values)
    if not values:
        raise ValueError("cannot normalize an empty score vector")
    lo, hi = min(values), max(values)
    if hi == lo:
        return (0.0,) * len(values)
    span = hi - lo
    return tuple((v - lo) / span for v in values)


def _scores(kind: str, raw) -> CentralityScores:
    raw = tuple(float(v) for v in raw)
    return CentralityScores(kind=kind, raw=raw, normalized=normalize_minmax(raw))


def degree_centrality(topology: Topology) -> CentralityScores:
    return _scores("degree", (topology.degree(v) for v in range(topology.node_count)))


def closeness_centrality(topology: Topology, cache: PathCache | None = None) -> CentralityScores:
    """reachable-count / sum-of-distances per node; isolated nodes score 0."""
    raw = []
    cache = cache or PathCache(topology)
    for v in range(topology.node_count):
        dist = cache.dist_from(v)
        reachable = [d for d in dist if d != UNREACHABLE and d > 0]
        raw.append(len(reachable) / sum(reachable) if reachable else 0.0)
    return _scores("closeness", raw)


def betweenness_centrality(topology: Topology, cache: PathCache | None = None) -> CentralityScores:
    """Brandes dependency accumulation over unordered node pairs."""
    n = topology.node_count
    cache = cache or PathCache(topology)
    raw = [0.0] * n
    for s in range(n):
        sp = cache.paths_from(s)
        delta = [0.0] * n
        for w in reversed(sp.order):
            coeff = (1.0 + delta[w]) / sp.sigma[w]
            for p in sp.preds[w]:
                delta[p] += sp.sigma[p] * coeff
            if w != s:
                raw[w] += delta[w]
    # each unordered pair was accumulated from both endpoints
    return _scores("betweenness", (x / 2.0 for x in raw))


def eigenvector_centrality(topology: Topology, tol: float = 1e-9,
                           max_iter: int = 10_000) -> CentralityScores:
    """Dominant adjacency eigenvector via power iteration from the uniform
    vector, converged when successive unit iterates differ by < tol in
    max-norm.

    Iterates (A + I) rather than A: same eigenvectors, but the shift keeps
    bipartite graphs (whose spectrum is symmetric) from oscillating forever.
    """
    n = topology.node_count
    if topology.edge_count == 0:
        raise ValueError("eigenvector centrality undefined on an empty-edge graph")
    a = np.zeros((n, n))
    for u, v in topology.edges():
        a[u, v] = a[v, u] = 1.0
    np.fill_diagonal(a, 1.0)
    x = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iter):
        y = a @ x
        y /= np.linalg.norm(y)
        if np.max(np.abs(y - x)) < tol:
            return _scores("eigenvector", y)
        x = y
    raise PowerIterationError(
        f"power iteration did not converge within {max_iter} iterations (tol={tol})")


@dataclass(frozen=True)
class ReplicationPolicy:
    """Replica-class layout: a fraction ``alpha`` of each buffer is common to
    every caching node, the remainder unique per node.  The only owner of
    class sizes; a common class larger than the catalog is clamped to it."""

    alpha: float
    buffer_items: int
    catalog_size: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.buffer_items < 1:
            raise ValueError("buffer_items must be >= 1")
        if self.catalog_size < 1:
            raise ValueError("catalog_size must be >= 1")

    @property
    def common_class_size(self) -> int:
        return min(math.floor(self.alpha * self.buffer_items), self.catalog_size)

    @property
    def unique_class_size(self) -> int:
        return self.buffer_items - math.floor(self.alpha * self.buffer_items)

    def layout(self, caching_order) -> tuple[range, dict[int, range], range]:
        """Item ranks of each class for nodes joining the fog in
        ``caching_order``: the common class (the top ranks, empty without
        caching nodes), each node's unique class (the following ranks in fog
        order, trimmed once the catalog is exhausted) and the miss class
        (the ranks left to the origin alone)."""
        order = list(dict.fromkeys(caching_order))
        common = self.common_class_size if order else 0
        bounds = [min(common + i * self.unique_class_size, self.catalog_size)
                  for i in range(len(order) + 1)]
        unique = {w: range(bounds[i], bounds[i + 1]) for i, w in enumerate(order)}
        return range(common), unique, range(bounds[-1], self.catalog_size)

    def realized_unique_sizes(self, caching_order) -> tuple[list[int], int]:
        """Per-node unique-class sizes in fog order plus the miss-class size
        N_m."""
        _, unique, miss = self.layout(caching_order)
        return [len(ranks) for ranks in unique.values()], len(miss)


def _path_fraction_vector(sp, targets, n) -> list[float] | None:
    """For fixed source ``sp.source`` and equal-distance target set
    ``targets``, returns F with F[v] = (shortest source->targets paths through
    interior v) / (all shortest source->targets paths); None if unreachable."""
    targets = [t for t in targets if sp.dist[t] != UNREACHABLE]
    if not targets:
        return None
    total = sum(sp.sigma[t] for t in targets)
    tcount = [0] * n
    in_targets = [False] * n
    for t in targets:
        in_targets[t] = True
    dmax = max(sp.dist[t] for t in targets)
    for w in reversed(sp.order):
        if sp.dist[w] > dmax:
            continue
        if in_targets[w]:
            tcount[w] = 1
        tw = tcount[w]
        if tw:
            for p in sp.preds[w]:
                tcount[p] += tw
    frac = [0.0] * n
    src = sp.source
    for v in range(n):
        if v == src or in_targets[v]:
            continue
        if tcount[v]:
            frac[v] = sp.sigma[v] * tcount[v] / total
    return frac


def cbc_exact(topology: Topology, consumers, placement, catalog_size: int,
              cache: PathCache | None = None) -> CentralityScores:
    """Content-based centrality from a concrete placement.

    ``placement`` maps node id -> set of item ranks cached there; the origin
    implicitly holds everything.  For each (consumer, item) pair, paths are
    counted to the *nearest* holders of the item, and a node scores the
    fraction of those shortest paths on which it is interior.  Pairs where the
    consumer holds the item, or no holder is reachable, contribute zero.
    """
    n = topology.node_count
    cache = cache or PathCache(topology)
    holders_by_item: dict[int, set[int]] = {}
    for node, items in placement.items():
        if not 0 <= node < n:
            raise ValueError(f"placement references unknown node {node}")
        for item in items:
            if not 0 <= item < catalog_size:
                raise ValueError(f"placement references unknown content id {item}")
            holders_by_item.setdefault(item, set()).add(node)
    origin = topology.origin
    raw = [0.0] * n
    for u in sorted(set(consumers)):
        if not 0 <= u < n:
            raise ValueError(f"invalid consumer id {u}")
        sp = cache.paths_from(u)
        # group items by their nearest-holder set: the fraction vector is a
        # function of that set alone
        groups: dict[frozenset[int], int] = {}
        for item in range(catalog_size):
            holders = holders_by_item.get(item, set())
            if u in holders or u == origin:
                continue
            best = UNREACHABLE
            for h in holders:
                d = sp.dist[h]
                if d != UNREACHABLE and (best == UNREACHABLE or d < best):
                    best = d
            d_origin = sp.dist[origin]
            if d_origin != UNREACHABLE and (best == UNREACHABLE or d_origin < best):
                best = d_origin
            if best == UNREACHABLE:
                continue
            nearest = frozenset(
                h for h in holders if sp.dist[h] == best) | (
                frozenset((origin,)) if d_origin == best else frozenset())
            groups[nearest] = groups.get(nearest, 0) + 1
        for targets, count in groups.items():
            frac = _path_fraction_vector(sp, targets, n)
            if frac is None:
                continue
            for v in range(n):
                if frac[v]:
                    raw[v] += count * frac[v]
    return _scores("cbc_exact", raw)


def cbc_replication(topology: Topology, consumers, policy: ReplicationPolicy,
                    caching_nodes, cache: PathCache | None = None) -> CentralityScores:
    """Content-based centrality from replica classes alone, no per-item map.

    Three class kinds: the common class (held at every caching node), one
    unique class per caching node (held there and at the origin), and the miss
    class (origin only).  Class sizes follow ``policy`` with trailing unique
    classes trimmed once the catalog is exhausted, in ``caching_nodes`` order,
    so the result equals :func:`cbc_exact` on any concrete placement realizing
    the same classes.
    """
    n = topology.node_count
    cache = cache or PathCache(topology)
    caching_order = list(dict.fromkeys(caching_nodes))
    for w in caching_order:
        if not 0 <= w < n:
            raise ValueError(f"invalid caching node id {w}")
    common, unique, miss = policy.layout(caching_order)
    common_size, miss_count = len(common), len(miss)
    caching_set = set(caching_order)
    origin = topology.origin
    raw = [0.0] * n
    for u in sorted(set(consumers)):
        if not 0 <= u < n or u == origin:
            continue
        sp = cache.paths_from(u)
        d_origin = sp.dist[origin]
        origin_reachable = d_origin != UNREACHABLE

        # common class: nearest holders among caching nodes + origin
        if common_size and u not in caching_set:
            candidates = [w for w in caching_order if sp.dist[w] != UNREACHABLE]
            best = d_origin if origin_reachable else UNREACHABLE
            for w in candidates:
                if best == UNREACHABLE or sp.dist[w] < best:
                    best = sp.dist[w]
            if best != UNREACHABLE:
                targets = {w for w in candidates if sp.dist[w] == best}
                if origin_reachable and d_origin == best:
                    targets.add(origin)
                frac = _path_fraction_vector(sp, targets, n)
                for v in range(n):
                    if frac[v]:
                        raw[v] += common_size * frac[v]

        # unique classes: single-target ones fold into one weighted Brandes
        # pass; ties with the origin distance need a joint target set
        weights = [0.0] * n
        origin_weight = float(miss_count) if origin_reachable else 0.0
        tie_classes = []
        for w, ranks in unique.items():
            size = len(ranks)
            if not size or w == u:
                continue
            dw = sp.dist[w]
            if dw == UNREACHABLE:
                if origin_reachable:
                    origin_weight += size
                continue
            if not origin_reachable or dw < d_origin:
                weights[w] += size
            elif dw == d_origin:
                tie_classes.append((w, size))
            else:
                origin_weight += size
        if origin_reachable:
            weights[origin] += origin_weight
        if any(weights):
            delta = [0.0] * n
            for w in reversed(sp.order):
                coeff = (weights[w] + delta[w]) / sp.sigma[w]
                for p in sp.preds[w]:
                    delta[p] += sp.sigma[p] * coeff
            for v in range(n):
                if v != u and delta[v]:
                    raw[v] += delta[v]
        for w, size in tie_classes:
            frac = _path_fraction_vector(sp, {w, origin}, n)
            for v in range(n):
                if frac[v]:
                    raw[v] += size * frac[v]
    return _scores("cbc_replication", raw)


def concretize_classes(policy: ReplicationPolicy, caching_nodes) -> dict[int, set[int]]:
    """A concrete placement realizing the policy's replica classes: common
    class = top ranks at every caching node, unique classes = following ranks
    in fog order.  Used to cross-check the class-based computation."""
    common, unique, _ = policy.layout(caching_nodes)
    return {w: set(common) | set(ranks) for w, ranks in unique.items()}


def export_scores_csv(scores: CentralityScores, topology: Topology, stream) -> None:
    """CSV rows: node_id (original), kind, raw, normalized; sorted by node_id."""
    stream.write("node_id,kind,raw,normalized\n")
    for v in range(topology.node_count):
        stream.write(f"{topology.original_ids[v]},{scores.kind},"
                     f"{scores.raw[v]:.12g},{scores.normalized[v]:.12g}\n")
