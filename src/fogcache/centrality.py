"""Node centralities: the four classic measures plus content-based centrality
in exact (per-item placement) and scalable replica-class forms."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import (_BATCH, UNREACHABLE, PathCache, ShortestPathData, Topology,
                    cache_for, farness)


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
    return _scores("degree", map(len, topology.adjacency))


def closeness_centrality(topology: Topology) -> CentralityScores:
    """reachable-count / sum-of-distances per node; isolated nodes score 0."""
    reached, far = farness(topology)
    return _scores("closeness", (r / f if r else 0.0 for r, f in zip(reached, far)))


def _accumulate(raw: list[float], topology: Topology, sp: ShortestPathData,
                weights) -> None:
    """Target-weighted Brandes dependency accumulation (Brandes 2008) from
    the BFS source: adds to ``raw[v]``, for every v but the source, the sum
    over targets t of ``weights[t]`` times the fraction of shortest
    source->t paths on which v lies strictly before t.  Predecessors are the
    neighbours one hop closer to the source.  Weight on the source itself is
    never read: a consumer that holds an item is its own nearest holder and
    sends that item's interests through no one."""
    adjacency = topology.adjacency
    dist, sigma = sp.dist, sp.sigma
    delta = [0.0] * len(dist)
    for w in sp.order[:0:-1]:  # farthest first; the source needs no pass
        dw = delta[w]
        if dw:
            raw[w] += dw
        acc = weights[w] + dw
        if not acc:
            continue
        coeff = acc / sigma[w]
        closer = dist[w] - 1
        for p in adjacency[w]:
            if dist[p] == closer:
                delta[p] += sigma[p] * coeff


def betweenness_centrality(topology: Topology, cache: PathCache | None = None) -> CentralityScores:
    """Brandes dependency accumulation over unordered node pairs, for a batch
    of sources at a time over the levels of :meth:`PathCache.bfs_levels`.

    Every float gets the additions of :func:`_accumulate` in its order, so the
    scores are bit-identical to the per-source pass: a level's predecessor
    edges are summed by ``np.bincount`` in descending child position (the
    reverse BFS order ``_accumulate`` walks), and each source's dependencies
    are added to ``raw`` in source order.  Past int64, σ and its products are
    Python ints and floats, as in ``_accumulate``.
    """
    n = topology.node_count
    cache = cache_for(topology, cache)
    raw = np.zeros(n)
    for start in range(0, n, _BATCH):
        sources = range(start, min(start + _BATCH, n))
        levels = cache.bfs_levels(sources)
        deltas = np.zeros(len(sources) * n)
        delta = np.zeros(levels[-1].nodes.size)
        for level, upper in zip(levels[:0:-1], levels[-2::-1]):
            deltas[level.nodes] = delta
            coeff = (1.0 + delta) / level.sigma
            child, parent = level.child[::-1], level.parent[::-1]
            # bincount takes no object weights; a no-op cast on float64
            weights = np.asarray(upper.sigma[parent] * coeff[child], dtype=float)
            delta = np.bincount(parent, weights=weights, minlength=upper.nodes.size)
        for row in deltas.reshape(len(sources), n):
            raw += row
    # each unordered pair was accumulated from both endpoints
    return _scores("betweenness", (x / 2.0 for x in raw.tolist()))


def eigenvector_centrality(topology: Topology, tol: float = 1e-9,
                           max_iter: int = 50_000) -> CentralityScores:
    """Dominant eigenvector of A + I (A's eigenvectors; the shift keeps
    bipartite graphs from oscillating) by power iteration from the uniform
    vector, stopped once successive unit iterates differ by < tol in
    max-norm, which bounds the error only to about tol / (1 - λ2/λ1).  A
    step sums x over each node's closed neighbourhood N[v] in ascending id
    (``np.bincount``) and divides by an ``fsum`` norm: no BLAS kernel
    decides the bits, and closed twins (N[u] == N[v]) score bit-equal.
    """
    n = topology.node_count
    if topology.edge_count == 0:
        raise ValueError("eigenvector centrality undefined on an empty-edge graph")
    closed = [sorted((v, *adj)) for v, adj in enumerate(topology.adjacency)]
    row = np.repeat(np.arange(n), [len(c) for c in closed])
    col = np.concatenate(closed)
    x = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iter):
        y = np.bincount(row, weights=x[col], minlength=n)
        y /= math.sqrt(math.fsum((y * y).tolist()))
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


def _cbc(kind: str, topology: Topology, consumers, classes,
         cache: PathCache | None) -> CentralityScores:
    """Route each consumer's interests for every ``(holders, size)`` class to
    the class's nearest reachable holders, listed once each, and score the
    shortest paths they take with :func:`_accumulate`.  A single nearest
    holder gets the whole size in its tally, a sum of whole sizes and so
    exact in a float below 2^53 items; equidistant nearest ones split it,
    size·σ_t/Σσ onto each such holder t, and a node's split shares are
    summed in class order before its tally is added.  No reachable holder
    adds nothing."""
    n = topology.node_count
    cache = cache_for(topology, cache)
    raw = [0.0] * n
    for u in sorted(set(consumers)):
        if not 0 <= u < n:
            raise ValueError(f"invalid consumer id {u}")
        sp = cache.paths_from(u)
        dist, sigma = sp.dist, sp.sigma
        weights = [0.0] * n  # whole-class tallies
        shares: dict[int, float] = {}
        for holders, size in classes:
            best, nearest = n, None  # n: farther than any reachable holder
            for h in holders:
                d = dist[h]
                if d == UNREACHABLE or d > best:
                    continue
                if d < best:
                    best, total, nearest = d, sigma[h], h
                else:
                    total += sigma[h]
                    nearest = None
            if nearest is not None:
                weights[nearest] += size
            elif best < n:
                for h in holders:
                    if dist[h] == best:
                        shares[h] = shares.get(h, 0.0) + size * sigma[h] / total
        for t, share in shares.items():
            weights[t] = share + weights[t]
        _accumulate(raw, topology, sp, weights)
    return _scores(kind, raw)


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
    holders_by_item: dict[int, set[int]] = {}
    for node, items in placement.items():
        if not 0 <= node < n:
            raise ValueError(f"placement references unknown node {node}")
        for item in items:
            if not 0 <= item < catalog_size:
                raise ValueError(f"placement references unknown content id {item}")
            holders_by_item.setdefault(item, set()).add(node)
    origin = topology.origin
    # items with the same holder set are routed alike: count them together
    groups = Counter(frozenset(holders_by_item.get(item, ())) | {origin}
                     for item in range(catalog_size))
    return _cbc("cbc_exact", topology, consumers, groups.items(), cache)


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
    caching_order = list(dict.fromkeys(caching_nodes))
    for w in caching_order:
        if not 0 <= w < topology.node_count:
            raise ValueError(f"invalid caching node id {w}")
    origin = topology.origin
    common, unique, miss = policy.layout(caching_order)
    classes = [((*caching_order, origin), common),
               *(((w, origin), ranks) for w, ranks in unique.items()),
               ((origin,), miss)]
    return _cbc("cbc_replication", topology, consumers,
                [(tuple(dict.fromkeys(h)), len(r)) for h, r in classes if r], cache)


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
