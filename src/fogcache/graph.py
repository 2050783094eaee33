"""Connectivity graph: edge-list ingestion, BFS path counting, components."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

UNREACHABLE = -1
_INT64_MAX = 2**63 - 1
# sources per batched BFS: a batch's arrays grow with it, and larger batches
# gain little time for the memory (README, "Batched betweenness")
_BATCH = 32
# the all-sources BFS ORs a j-th-neighbour slot on its own while it spans
# this many rows
_SLOT_ROWS = 64
# distances unpacked at a time from the bit-sliced round stamps
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Topology:
    """Undirected, unweighted connectivity snapshot with a designated origin.

    Nodes carry dense ids 0..n-1, assigned in ascending order of the original
    input ids (so dense-id order and original-id order agree).  ``origin`` is
    the node that permanently holds the full content catalog.
    """

    adjacency: tuple[tuple[int, ...], ...]
    origin: int
    original_ids: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Dense-id edge list with a < b."""
        return [(a, b) for a in range(self.node_count)
                for b in self.adjacency[a] if a < b]


@dataclass(frozen=True)
class ShortestPathData:
    """Single-source BFS result: hop distances and shortest-path counts.

    ``order`` lists the reached nodes in non-decreasing distance (BFS
    visitation order, the source first); accumulation passes walk it in
    reverse.  The shortest-path predecessors of v are its neighbours p with
    ``dist[p] == dist[v] - 1``.
    """

    dist: tuple[int, ...]
    sigma: tuple[int, ...]
    order: tuple[int, ...]


def _csr(node_count: int, tails: np.ndarray, heads: np.ndarray):
    """CSR arrays of the arcs ``tails[k] -> heads[k]`` over nodes
    0..node_count-1: int64 row offsets, and each row's heads in ascending
    order."""
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=node_count), out=indptr[1:])
    # stable: fast on the sorted arcs of adjacency lists, and it keeps
    # numpy's SIMD quicksort (about 0.4 MB of resident code) out of the process
    return indptr, np.sort(tails * node_count + heads, kind="stable") % node_count


def _arcs(adjacency):
    """Tails and heads (int64) of every arc of adjacency lists, in list order."""
    degree = np.fromiter(map(len, adjacency), np.int64, count=len(adjacency))
    heads = np.fromiter(chain.from_iterable(adjacency), np.int64,
                        count=int(degree.sum()))
    return np.repeat(np.arange(len(adjacency)), degree), heads


def _adjacency(indptr: np.ndarray, indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The adjacency tuples of CSR arrays, sharing one Python int per node."""
    flat = np.arange(indptr.size - 1).astype(object).take(indices).tolist()
    ends = indptr.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))


def from_edges(edges, nodes=None, origin_spec="auto"):
    """Build a validated Topology from an iterable of original-id edge pairs.

    ``nodes`` may add isolated nodes beyond the edge endpoints.  Ids are
    integers: numpy integers become Python ints, and a float id raises
    ``TypeError``.  ``origin_spec`` is an original node id, or "auto" for the
    max-degree node (ties: smallest original id).
    """
    node_set = set(map(operator.index, nodes)) if nodes is not None else set()
    if node_set and min(node_set) < 0:
        raise ValueError(f"negative node id in nodes ({min(node_set)})")
    edge_set = set()
    for a, b in edges:
        a, b = operator.index(a), operator.index(b)
        if a == b:
            raise ValueError(f"self-loop edge on node {a}")
        if a < 0 or b < 0:
            raise ValueError(f"negative node id in edge ({a}, {b})")
        node_set.add(a)
        node_set.add(b)
        edge_set.add((a, b) if a < b else (b, a))
    if not node_set:
        raise ValueError("empty graph: no nodes or edges")
    original_ids = tuple(sorted(node_set))
    dense = {orig: i for i, orig in enumerate(original_ids)}
    pairs = np.array([dense[v] for edge in edge_set for v in edge],
                     dtype=np.int64).reshape(-1, 2)
    adjacency = _adjacency(*_csr(len(original_ids),
                                 *np.concatenate([pairs, pairs[:, ::-1]]).T))
    if origin_spec == "auto":
        origin = max(range(len(adjacency)),
                     key=lambda v: (len(adjacency[v]), -original_ids[v]))
    else:
        if origin_spec not in dense:
            raise ValueError(f"origin id {origin_spec} absent from node set")
        origin = dense[origin_spec]
    return Topology(adjacency=adjacency, origin=origin, original_ids=original_ids)


def load_topology(text, origin_spec="auto"):
    """Parse a whitespace-separated edge-list document (one edge per line).

    Lines starting with '#' are ignored, except that under "auto" an
    ``origin=<id>`` token on a '#' first line (the ``serialize_topology``
    header) names the origin; duplicate edges collapse.
    """
    lines = text.splitlines()
    if origin_spec == "auto" and lines and lines[0].lstrip().startswith("#"):
        for token in lines[0].split():
            if token.startswith("origin="):
                try:
                    origin_spec = int(token.removeprefix("origin="))
                except ValueError:
                    raise ValueError(f"line 1: non-integer token {token!r}") from None
    edges = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer token in {line!r}") from None
        edges.append((a, b))
    if not edges:
        raise ValueError("empty document: no edges")
    return from_edges(edges, origin_spec=origin_spec)


def serialize_topology(topology: Topology) -> str:
    """Emit the edge-list form: header comment, then 'a b' lines (a < b),
    in original-id space, sorted."""
    lines = [f"# nodes={topology.node_count} "
             f"origin={topology.original_ids[topology.origin]}"]
    pairs = sorted((topology.original_ids[a], topology.original_ids[b])
                   for a, b in topology.edges())
    lines.extend(f"{a} {b}" for a, b in pairs)
    return "\n".join(lines) + "\n"


class BFSLevel(NamedTuple):
    """One level of a batched BFS (see :meth:`PathCache.bfs_levels`).

    ``nodes`` holds the level's nodes as batch keys ``b * n + v`` (b the
    source's index in the batch), each source's in first-discovery order, so
    they follow a queue BFS that scans neighbours in ascending id; ``sigma``
    their path counts (int64, or Python ints once they could pass 2^63 - 1).
    Each predecessor edge into the level links ``nodes[child]`` to
    ``nodes[parent]`` of the level before, and the edges are sorted by
    ``child``.
    """

    nodes: np.ndarray
    sigma: np.ndarray
    child: np.ndarray
    parent: np.ndarray


def bfs_shortest_paths(topology: Topology, source: int) -> ShortestPathData:
    """BFS from ``source`` counting all distinct shortest paths (Python ints,
    exact beyond 2^63), as a batch of one through :meth:`PathCache.bfs_levels`."""
    cache = PathCache(topology)
    cache.bfs_levels([source])
    return cache.paths_from(source)


def farness(topology: Topology) -> tuple[list[int], list[int]]:
    """Per node, the number of other nodes it reaches and the sum of its hop
    distances to them, from one all-sources BFS (see :func:`_farness`)."""
    size, far, _ = _farness(*_csr(topology.node_count, *_arcs(topology.adjacency)))
    return (size - 1).tolist(), far.tolist()


def _farness(indptr: np.ndarray, indices: np.ndarray):
    """Per node of the CSR arrays of an undirected graph, the number of nodes
    it reaches (itself included) and the sum of its hop distances to them, as
    int64, and its final reach row: ``reach[v]`` holds bit w (bit w % 64 of
    word w // 64) for every node w that v reaches, so it is v's component.
    A node at distance d is missing from the first d states of
    :func:`_reach_rounds`, so the sum is the final size times the state count
    less every state's size."""
    rank, states = _reach_rounds(indptr, indices)
    far = np.zeros(indptr.size - 1, dtype=np.int64)
    for k, (reach, size) in enumerate(states, 1):
        far -= size
    far += k * size
    return size.take(rank), far.take(rank), reach.take(rank, axis=0)


def _distances(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The (n × n) hop distances of the CSR arrays of an undirected graph, in
    the narrowest signed dtype for the round count of :func:`_reach_rounds`,
    UNREACHABLE where no path.  Round k stamps k on every bit it sets, and
    the bits never set take the round past the last one.  The stamps are
    bit-sliced: plane p holds bit p of every stamp, packed like the reach
    rows, so a round ORs its new bits into the planes of k's set bits.  The
    planes are unpacked into the matrix in chunks of rows."""
    n = indptr.size - 1
    rank, states = _reach_rounds(indptr, indices)
    planes = []

    def stamp(k, bits):
        if k == 1 << len(planes):  # k needs one more plane
            planes.append(np.zeros_like(bits))
        for p, plane in enumerate(planes):
            if k >> p & 1:
                plane |= bits

    for k, (reach, _) in enumerate(states):
        if k:
            stamp(k, reach ^ last)
        last = reach
    k += 1
    stamp(k, ~last)
    dist = np.empty((n, n), dtype=np.min_scalar_type(-k))
    stamps = dist.view(f"u{dist.itemsize}")  # UNREACHABLE is its largest value
    step = max(1, _CHUNK // n)
    for lo in range(0, n, step):
        rows, out = rank[lo:lo + step], stamps[lo:lo + step]
        out[...] = 0
        for plane in reversed(planes):
            out <<= 1
            bits = plane.take(rows, axis=0).astype("<u8", copy=False).view(np.uint8)
            out |= np.unpackbits(bits, axis=1, count=n, bitorder="little")
        out[out == k] = np.iinfo(stamps.dtype).max
    return dist


def _reach_rounds(indptr: np.ndarray, indices: np.ndarray):
    """All-sources BFS over the CSR arrays of an undirected graph, on packed
    uint64 bitset rows (Then et al., VLDB 2014): round k ORs each
    neighbour's previous reach into a node's reach, and every newly set bit
    lies at distance k.  Returns ``rank`` (node -> row) and a generator of
    the states after rounds 0, 1, ...: the reach rows, where row ``rank[v]``
    holds bit w (bit w % 64 of word w // 64) for every node w within k hops
    of v, and the bits set per row, as int64.  It stops after the last round
    that sets a bit.  A state's arrays are valid until the state after the
    next one is asked for, and the last state's stay valid.

    Rows are labelled by descending degree, so the rows with a j-th
    neighbour form a prefix: while that "slot" spans at least
    ``_SLOT_ROWS`` rows, one gather ORs it in place.  The remaining
    neighbours of the fewer, larger rows go through ``reduceat`` in runs
    that gather under 2n rows each, so the numpy calls per round do not grow
    with the maximum degree."""
    n = indptr.size - 1
    degree = np.diff(indptr)
    perm = np.argsort(-degree, kind="stable")  # row -> node
    rank = np.argsort(perm)  # node -> row
    indices = rank.take(indices)
    starts = indptr.take(perm)
    # rows[j]: how many rows have more than j neighbours (a prefix of rows)
    rows = n - np.cumsum(np.bincount(degree))
    cut = int(np.count_nonzero(rows >= _SLOT_ROWS))
    slots = [indices.take(starts[:rows[j]] + j) for j in range(cut)]
    big = int(rows[cut])
    extra = degree.take(perm[:big]) - cut
    seg = np.cumsum(extra) - extra
    rest = indices.take(np.repeat(starts[:big] + cut - seg, extra)
                        + np.arange(int(extra.sum())))
    bounds = [*np.flatnonzero(np.diff(seg // n, prepend=-1)).tolist(), big]
    runs = [(a, b, rest[seg[a]:seg[b - 1] + extra[b - 1]], seg[a:b] - seg[a])
            for a, b in zip(bounds, bounds[1:])]

    def states():
        # a row's bits name nodes, not rows
        reach = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
        reach[np.arange(n), perm // 64] = np.uint64(1) << (perm % 64).astype(np.uint64)
        new = np.empty_like(reach)
        size = np.ones(n, dtype=np.int64)  # bits set per row
        while True:
            yield reach, size
            np.copyto(new, reach)
            for slot in slots:
                new[:slot.size] |= reach.take(slot, axis=0)
            for a, b, nbrs, offsets in runs:
                new[a:b] |= np.bitwise_or.reduceat(reach.take(nbrs, axis=0), offsets, axis=0)
            grown = np.bitwise_count(new).sum(axis=1, dtype=np.int64)
            if np.array_equal(grown, size):
                return
            size, reach, new = grown, new, reach

    return rank, states()


def connected_components(topology: Topology) -> list[tuple[int, ...]]:
    """Node sets of each component, ordered by smallest member id, from a
    union-find over the edges (the smaller root wins); members are gathered
    in ascending id."""
    parent = list(range(topology.node_count))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    for v, nbrs in enumerate(topology.adjacency):
        rv = root(v)
        for w in nbrs:
            if w > v:  # each edge once
                rw = root(w)
                if rw < rv:
                    parent[rv] = rv = rw
                elif rv < rw:
                    parent[rw] = rv
    members: dict[int, list[int]] = {}
    for v in range(len(parent)):
        members.setdefault(root(v), []).append(v)
    return [tuple(m) for m in members.values()]


class PathCache:
    """Hop distances, per-source path counts and visitation order, and
    per-target next-hop trees for one immutable topology.

    It keeps two stores.  Every hop distance comes from one all-sources pass
    (:func:`_distances`) when the cache is built, and :meth:`dist_from` hands
    out a read-only view of a source's row, the same object on every read.
    Path counts and BFS order run through :meth:`bfs_levels` and stay as
    compact numpy rows for the cache's lifetime, for the ``readers`` only
    (every source when ``readers`` is None): betweenness leaves theirs,
    batch by batch, and a read of a source without rows adds it to the
    readers and runs the aligned block of ``_BATCH`` ids that holds it.
    :meth:`paths_from` builds a source's tuples from its rows on each call,
    and :meth:`next_hops` hands out a target's memoized read-only tree, built
    in numpy.  Rows and trees are never replaced (``dict.setdefault``), so
    concurrent readers under the GIL are safe: racing readers of one source
    get the same objects.
    """

    def __init__(self, topology: Topology, readers=None):
        self.topology = topology
        # per-source σ and order rows (see _store) and per-target next-hop trees
        self._rows: dict[int, tuple] = {}
        self._hops: dict[int, memoryview] = {}
        # CSR adjacency (with each entry's tail), and one int per node id:
        # taking from it builds the order tuples faster than boxing each id
        n = topology.node_count
        self._tails, heads = _arcs(topology.adjacency)
        self._indptr, self._indices = _csr(n, self._tails, heads)
        self._ids = np.arange(n).astype(object)
        # the sources whose rows a BFS keeps, or None for every source
        self._readers = None if readers is None else set(map(self._valid, readers))
        # one read-only view per source row of the distance matrix
        dist = memoryview(_distances(self._indptr, self._indices).reshape(-1)).toreadonly()
        self._dist = [dist[v * n:(v + 1) * n] for v in range(n)]

    def bfs_levels(self, sources) -> list[BFSLevel]:
        """Level-synchronous BFS from every node of ``sources`` at once over a
        CSR copy of the adjacency (Kepner & Gilbert 2011), with exact path
        counts: int64 while they fit, Python ints once a level's counts could
        pass 2^63 - 1.  Caches the σ and order rows of each source that is
        one of the cache's readers and has none yet, from which, with its
        distance row, :meth:`paths_from` builds a :class:`ShortestPathData`
        equal to a per-source Python BFS, and returns the levels of every
        source, the sources first."""
        indptr, indices = self._indptr, self._indices
        n = indptr.size - 1
        degree = np.diff(indptr)
        # a child sums at most max-degree parent counts
        limit = _INT64_MAX // max(1, int(degree.max()))
        sources = list(sources)
        if not sources:
            raise ValueError("bfs_levels needs at least one source")
        for s in sources:
            if not 0 <= s < n:
                raise ValueError(f"invalid source id {s}")
        nodes = np.arange(len(sources), dtype=np.int64) * n + sources
        sigma = np.ones(len(sources), dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        levels = [BFSLevel(nodes, sigma, empty, empty)]
        # per key: unreached (_INT64_MAX), then briefly the first candidate
        # edge to reach it, then its position in its level
        slot = np.full(len(sources) * n, _INT64_MAX, dtype=np.int64)
        slot[nodes] = 0
        while True:
            if sigma.dtype != object and int(sigma.max(initial=0)) > limit:
                sigma = sigma.astype(object)  # exact from here on
            v = nodes % n
            counts = degree.take(v)
            total = int(counts.sum())
            # every (frontier node, neighbour) pair, frontier-major, neighbours
            # ascending: the order in which a queue BFS meets them
            parent = np.repeat(np.arange(nodes.size), counts)
            ends = np.cumsum(counts)
            edge = np.arange(total) + np.repeat(indptr.take(v) - ends + counts, counts)
            key = np.repeat(nodes - v, counts) + indices.take(edge)
            fresh = np.flatnonzero(slot.take(key) == _INT64_MAX)
            if not fresh.size:
                break
            key, parent = key.take(fresh), parent.take(fresh)
            seen = np.arange(key.size)
            np.minimum.at(slot, key, seen)
            # each key at its first candidate edge: first-discovery order
            nodes = key.take(np.flatnonzero(slot.take(key) == seen))
            slot[nodes] = np.arange(nodes.size)
            child = slot.take(key)
            # group the edges by child: numpy radix-sorts 16-bit keys
            by_child = np.argsort(child.astype(np.min_scalar_type(nodes.size)),
                                  kind="stable")
            child, parent = child.take(by_child), parent.take(by_child)
            fan_in = np.bincount(child, minlength=nodes.size)
            sigma = np.add.reduceat(sigma.take(parent), np.cumsum(fan_in) - fan_in)
            levels.append(BFSLevel(nodes, sigma, child, parent))
        self._store(sources, levels)
        return levels

    def _store(self, sources: list[int], levels: list[BFSLevel]) -> None:
        """Keep the path counts and BFS order from ``levels`` of each source
        that is a reader and has no rows, as compact rows for
        :meth:`paths_from` to build its tuples from, in arrays sized to those
        sources: the ``order`` in the narrowest dtype for n, and σ as an
        index row into their sorted distinct path counts, int64 unless one of
        them passes 2^63 - 1."""
        readers = self._readers
        kept = [b for b, s in enumerate(sources) if s not in self._rows
                and (readers is None or s in readers)]
        if not kept:
            return
        n = self._ids.size
        keys = np.concatenate([level.nodes for level in levels])
        counts = np.concatenate([level.sigma for level in levels])
        # batch position -> kept position, -1 for a source not kept
        rank = np.full(len(sources), -1, dtype=np.int64)
        rank[kept] = np.arange(len(kept))
        row = rank.take(keys // n)
        mine = np.flatnonzero(row >= 0)
        keys, counts, row = keys.take(mine), counts.take(mine), row.take(mine)
        # a leading 0 gives the unreached nodes index 0
        counts = np.concatenate([[0], counts])
        if counts.dtype == object and counts.max() <= _INT64_MAX:
            counts = counts.astype(np.int64)  # promoted, yet every count fits
        values, index = np.unique(counts, return_inverse=True)
        sigma = np.zeros(len(kept) * n, dtype=np.min_scalar_type(values.size))
        sigma[row * n + keys % n] = index[1:]
        # group the keys by source, keeping each source's BFS order
        by_source = np.argsort(row.astype(np.min_scalar_type(len(kept))),
                               kind="stable")  # a radix sort
        order = (keys.take(by_source) % n).astype(np.min_scalar_type(n))
        ends = np.cumsum(np.bincount(row, minlength=len(kept))).tolist()
        rows = zip([sources[b] for b in kept], [0, *ends], ends)
        for k, (s, start, end) in enumerate(rows):
            self._rows.setdefault(s, (values, sigma[k * n:(k + 1) * n], order[start:end]))

    def _row(self, source: int) -> tuple:
        """The σ and order rows of ``source``, after a BFS of its block if it
        has none; the source becomes a reader, so the BFS keeps its rows."""
        if source not in self._rows:
            start = self._valid(source) - source % _BATCH
            if self._readers is not None:
                self._readers.add(source)
            self.bfs_levels(range(start, min(start + _BATCH, self._ids.size)))
        return self._rows[source]

    def _valid(self, source: int) -> int:
        """``source``, unless it names no node."""
        if not 0 <= source < self._ids.size:
            raise ValueError(f"invalid source id {source}")
        return source

    def dist_from(self, source: int) -> memoryview:
        """The stored read-only view of the hop distances from ``source``,
        UNREACHABLE where no path."""
        return self._dist[self._valid(source)]

    def paths_from(self, source: int) -> ShortestPathData:
        """The BFS of ``source``, built from its rows on each call."""
        values, sigma, order = self._row(source)
        return ShortestPathData(dist=tuple(self._dist[source].tolist()),
                                sigma=tuple(values.take(sigma).tolist()),
                                order=tuple(self._ids.take(order).tolist()))

    def next_hops(self, target: int) -> memoryview:
        """Memoized read-only routing tree toward ``target``: entry v is v's
        smallest-id neighbour one hop closer to ``target``, or UNREACHABLE
        where there is none (``target`` itself and nodes it cannot reach)."""
        if target not in self._hops:
            dist = np.asarray(self._dist[self._valid(target)])
            # CSR entries (v, w) with w one hop closer: v ascends, and so does
            # w within v, so v's first entry holds its smallest-id hop
            closer = np.flatnonzero(dist.take(self._indices) == dist.take(self._tails) - 1)
            first = closer.take(np.flatnonzero(np.diff(self._tails.take(closer), prepend=-1)))
            hops = np.full(dist.size, UNREACHABLE, dtype=np.min_scalar_type(-dist.size))
            hops[self._tails.take(first)] = self._indices.take(first)
            self._hops.setdefault(target, memoryview(hops).toreadonly())
        return self._hops[target]


def cache_for(topology: Topology, cache: PathCache | None = None) -> PathCache:
    """``cache``, or a new :class:`PathCache` of ``topology`` without one.  A
    cache built for another topology is refused: its rows would route and
    score another graph."""
    if cache is None:
        return PathCache(topology)
    if cache.topology != topology:
        raise ValueError("path cache was built for another topology")
    return cache
