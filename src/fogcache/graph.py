"""Connectivity graph: edge-list ingestion, BFS path counting, components."""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field

UNREACHABLE = -1


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
    snapshot_label: str = ""

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """Dense-id edge list with a < b."""
        return [(a, b) for a in range(self.node_count)
                for b in self.adjacency[a] if a < b]


@dataclass(frozen=True)
class ShortestPathData:
    """Single-source BFS result: hop distances, path counts, predecessor DAG.

    ``order`` lists nodes in non-decreasing distance (BFS visitation order);
    accumulation passes walk it in reverse.
    """

    source: int
    dist: tuple[int, ...]
    sigma: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]


def from_edges(edges, nodes=None, origin_spec="auto", label=""):
    """Build a validated Topology from an iterable of original-id edge pairs.

    ``nodes`` may add isolated nodes beyond the edge endpoints.  ``origin_spec``
    is an original node id, or "auto" for the max-degree node (ties: smallest
    original id).
    """
    node_set = set(nodes) if nodes else set()
    edge_set = set()
    for a, b in edges:
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
    adj: list[set[int]] = [set() for _ in original_ids]
    for a, b in edge_set:
        adj[dense[a]].add(dense[b])
        adj[dense[b]].add(dense[a])
    adjacency = tuple(tuple(sorted(s)) for s in adj)
    if origin_spec == "auto":
        origin = max(range(len(adjacency)),
                     key=lambda v: (len(adjacency[v]), -original_ids[v]))
    else:
        if origin_spec not in dense:
            raise ValueError(f"origin id {origin_spec} absent from node set")
        origin = dense[origin_spec]
    return Topology(adjacency=adjacency, origin=origin,
                    original_ids=original_ids, snapshot_label=label)


def load_topology(text, origin_spec="auto", label=""):
    """Parse a whitespace-separated edge-list document (one edge per line).

    Lines starting with '#' are ignored; duplicate edges collapse.
    """
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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
    return from_edges(edges, origin_spec=origin_spec, label=label)


def serialize_topology(topology: Topology) -> str:
    """Emit the edge-list form: header comment, then 'a b' lines (a < b),
    in original-id space, sorted."""
    lines = [f"# nodes={topology.node_count} "
             f"origin={topology.original_ids[topology.origin]}"]
    pairs = sorted((topology.original_ids[a], topology.original_ids[b])
                   for a, b in topology.edges())
    lines.extend(f"{a} {b}" for a, b in pairs)
    return "\n".join(lines) + "\n"


def bfs_shortest_paths(topology: Topology, source: int) -> ShortestPathData:
    """BFS from ``source`` counting all distinct shortest paths and recording
    the shortest-path predecessor DAG."""
    n = topology.node_count
    if not 0 <= source < n:
        raise ValueError(f"invalid source id {source}")
    dist = [UNREACHABLE] * n
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    order: list[int] = []
    dist[source] = 0
    sigma[source] = 1
    queue = deque([source])
    adjacency = topology.adjacency
    while queue:
        v = queue.popleft()
        order.append(v)
        dv = dist[v]
        sv = sigma[v]
        for w in adjacency[v]:
            if dist[w] == UNREACHABLE:
                dist[w] = dv + 1
                queue.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sv
                preds[w].append(v)
    return ShortestPathData(source=source, dist=tuple(dist), sigma=tuple(sigma),
                            preds=tuple(tuple(p) for p in preds),
                            order=tuple(order))


def connected_components(topology: Topology) -> list[tuple[int, ...]]:
    """Node sets of each component, ordered by smallest member id."""
    n = topology.node_count
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in topology.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        components.append(tuple(sorted(comp)))
    return components


class PathCache:
    """Lazily memoized per-source BFS results and per-target next-hop arrays
    for one immutable topology.

    Routing and centrality passes reuse BFS output across runs; memoization is
    append-only so concurrent readers under the GIL are safe.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._sp: dict[int, ShortestPathData] = {}
        self._hops: dict[int, array] = {}

    def paths_from(self, source: int) -> ShortestPathData:
        sp = self._sp.get(source)
        if sp is None:
            sp = bfs_shortest_paths(self.topology, source)
            self._sp[source] = sp
        return sp

    def dist_from(self, source: int) -> tuple[int, ...]:
        return self.paths_from(source).dist

    def next_hops(self, target: int) -> array:
        """Routing tree toward ``target``: entry v is the smallest-id
        neighbour of v one hop closer to ``target``, or UNREACHABLE where
        there is none (``target`` itself and nodes it cannot reach)."""
        hops = self._hops.get(target)
        if hops is None:
            dist = self.dist_from(target)
            hops = array("i", [UNREACHABLE]) * len(dist)
            for v, nbrs in enumerate(self.topology.adjacency):
                goal = dist[v] - 1
                if goal < 0:
                    continue
                for w in nbrs:  # sorted: first match = smallest id
                    if dist[w] == goal:
                        hops[v] = w
                        break
            self._hops[target] = hops
        return hops
