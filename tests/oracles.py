"""Independent brute-force oracles used to cross-check the fast paths.

Everything here recomputes from first principles (plain-dict BFS, a
per-source Python BFS, explicit path enumeration, hop-by-hop routing) and
deliberately shares no code with the package, except three references for
passes the package no longer runs.  ``per_source_betweenness`` is one
``python_bfs`` and one ``_accumulate`` pass per source, the bit-exact
reference for the batched ones; ``naive_synthetic_topology`` builds the
generator's graphs through ``from_edges`` and ``connected_components``;
``naive_interests`` draws each consumer with ``randrange``.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import OrderedDict, deque
from itertools import accumulate

from fogcache.centrality import _accumulate
from fogcache.graph import (UNREACHABLE, ShortestPathData, connected_components,
                            from_edges)


def adjacency_sets(topology):
    return [set(a) for a in topology.adjacency]


def plain_bfs_dist(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def python_bfs(topology, source):
    """Queue BFS from ``source`` counting all distinct shortest paths in
    Python ints, neighbours scanned in ascending id: the reference for every
    ``PathCache`` entry."""
    n = topology.node_count
    if not 0 <= source < n:
        raise ValueError(f"invalid source id {source}")
    dist = [UNREACHABLE] * n
    sigma = [0] * n
    dist[source] = 0
    sigma[source] = 1
    order = [source]
    adjacency = topology.adjacency
    for v in order:  # appending while iterating: order doubles as the queue
        dnext = dist[v] + 1
        sv = sigma[v]
        for w in adjacency[v]:
            dw = dist[w]
            if dw == UNREACHABLE:
                dist[w] = dnext
                sigma[w] = sv
                order.append(w)
            elif dw == dnext:
                sigma[w] += sv
    return ShortestPathData(dist=tuple(dist), sigma=tuple(sigma),
                            order=tuple(order))


def enumerate_shortest_paths(adj, source, target):
    """All shortest source->target paths as node lists (empty if unreachable)."""
    dist = plain_bfs_dist(adj, source)
    if target not in dist:
        return []

    def extend(node):
        if node == source:
            return [[source]]
        paths = []
        for p in adj[node]:
            if dist.get(p, -1) == dist[node] - 1:
                for prefix in extend(p):
                    paths.append(prefix + [node])
        return paths

    return extend(target)


def naive_sigma(topology, source):
    adj = adjacency_sets(topology)
    return [len(enumerate_shortest_paths(adj, source, t))
            for t in range(topology.node_count)]


def naive_betweenness(topology):
    adj = adjacency_sets(topology)
    n = topology.node_count
    raw = [0.0] * n
    for s in range(n):
        for t in range(s + 1, n):
            paths = enumerate_shortest_paths(adj, s, t)
            if not paths:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                through = sum(1 for p in paths if v in p[1:-1])
                raw[v] += through / len(paths)
    return raw


def per_source_betweenness(topology):
    """Betweenness as one Python BFS and one ``_accumulate`` pass per source,
    in source order: the float additions the batched pass must reproduce bit
    for bit."""
    n = topology.node_count
    raw = [0.0] * n
    unit = [1.0] * n
    for s in range(n):
        _accumulate(raw, topology, python_bfs(topology, s), unit)
    return tuple(x / 2.0 for x in raw)


def naive_cbc(topology, consumers, placement, catalog_size):
    """Path-enumeration content centrality: per (consumer, item), count the
    shortest paths to the nearest holders and the fraction interior to v."""
    adj = adjacency_sets(topology)
    n = topology.node_count
    origin = topology.origin
    raw = [0.0] * n
    for u in sorted(set(consumers)):
        dist = plain_bfs_dist(adj, u)
        for item in range(catalog_size):
            holders = {v for v, items in placement.items() if item in items}
            holders.add(origin)
            if u in holders:
                continue
            reachable = [h for h in holders if h in dist]
            if not reachable:
                continue
            best = min(dist[h] for h in reachable)
            nearest = [h for h in reachable if dist[h] == best]
            paths = [p for h in nearest
                     for p in enumerate_shortest_paths(adj, u, h)]
            for v in range(n):
                if v == u or v in nearest:
                    continue
                through = sum(1 for p in paths if v in p[1:-1])
                if through:
                    raw[v] += through / len(paths)
    return raw


def naive_simulation(topology, caches, providers, draws, capacity,
                     lru_enabled):
    """Interest-by-interest reference simulation.

    ``caches`` maps node -> placed items, most popular first.  Each interest
    goes to the nearest holder (ties: smaller id; the origin always holds),
    stepping through the smallest-id neighbour one hop closer to it.  With
    ``lru_enabled``, cache hits refresh recency and every provider between
    consumer and origin inserts the item of an origin-served interest,
    evicting its least recently used one beyond ``capacity``.  Returns the
    counters under their SimMetrics field names.
    """
    adj = [sorted(a) for a in topology.adjacency]
    n = len(adj)
    origin = topology.origin
    bfs = {}

    def dist_from(source):
        if source not in bfs:
            bfs[source] = plain_bfs_dist(adj, source)
        return bfs[source]

    state = {v: OrderedDict((item, None) for item in reversed(items))
             for v, items in caches.items()}
    received, responses, forwards = [0] * n, [0] * n, [0] * n
    served = {"self": 0, "cache": 0, "origin": 0, "none": 0}
    for consumer, item in draws:
        holders = {v for v, items in state.items() if item in items} | {origin}
        if consumer in holders:
            served["self"] += 1
            continue
        dist = dist_from(consumer)
        reachable = [h for h in holders if h in dist]
        if not reachable:
            served["none"] += 1
            continue
        server = min(reachable, key=lambda h: (dist[h], h))
        to_server = dist_from(server)
        path = [consumer]
        while path[-1] != server:
            here = to_server[path[-1]]
            path.append(min(w for w in adj[path[-1]]
                            if to_server.get(w) == here - 1))
        for v in path[1:-1]:
            received[v] += 1
            forwards[v] += 1
        received[server] += 1
        if server != origin:
            served["cache"] += 1
            responses[server] += 1
            if lru_enabled:
                state[server].move_to_end(item)
            continue
        served["origin"] += 1
        if not lru_enabled:
            continue
        for v in path[1:-1]:
            if v not in providers:
                continue
            items = state.setdefault(v, OrderedDict())
            if item in items:
                items.move_to_end(item)
                continue
            items[item] = None
            if len(items) > capacity:
                items.popitem(last=False)
    return {"interests_received": received, "cache_responses": responses,
            "forwards": forwards, "interests_generated": len(draws),
            "satisfied_from_cache": served["cache"],
            "satisfied_from_origin": served["origin"],
            "satisfied_self": served["self"],
            "unsatisfied": served["none"]}


def random_edge_set(rng: random.Random, n: int, p: float = 0.45):
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < p]


def geometric_pair_scan(points, radius):
    """Every point pair within ``radius`` by testing all n(n-1)/2 pairs, in
    (i, j), i < j order: the geometric generator's edge step before its cell
    list."""
    node_count, pts, r2 = len(points), points, radius * radius
    return [(i, j) for i in range(node_count) for j in range(i + 1, node_count)
            if (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2 <= r2]


def naive_synthetic_topology(kind, node_count, density, seed):
    """``generate_synthetic_topology`` as a pipeline of Python passes, with
    its input checks left out: the same seeded draws, the pair scan for the
    geometric kind, a validated full graph, its components (the largest, ties
    to the smallest member, is the giant) and plain-BFS farness for the
    origin.  Raises ValueError on an empty edge set."""
    rng = random.Random(seed)
    if kind == "geometric":
        points = [(rng.random(), rng.random()) for _ in range(node_count)]
        edges = geometric_pair_scan(points, density)
    elif kind == "grid":
        rows = math.isqrt(node_count)
        while node_count % rows:
            rows -= 1
        cols = node_count // rows
        edges = [(i, i + 1) for i in range(node_count) if (i + 1) % cols]
        edges += [(i, i + cols) for i in range(node_count - cols)]
    else:
        edges = random_edge_set(rng, node_count, density)
    if not edges:
        raise ValueError("generation parameters yielded an empty edge set")
    full = from_edges(edges, nodes=range(node_count))
    giant = max(connected_components(full), key=lambda c: (len(c), -min(c)))
    adj = adjacency_sets(full)
    far = {v: sum(plain_bfs_dist(adj, v).values()) for v in giant}
    keep = set(giant)
    return from_edges([(a, b) for a, b in edges if a in keep and b in keep],
                      origin_spec=max(giant, key=lambda v: (far[v], -v)))


def naive_interests(catalog, consumers, count, seed):
    """``generate_interests``'s draws, each consumer by ``rng.randrange``: the
    package's loop before it ran ``randrange``'s rejection loop itself."""
    consumers = sorted(set(consumers))
    cumulative = list(accumulate(catalog.popularity))
    cumulative[-1] = 1.0
    rng = random.Random(seed)
    n_cons = len(consumers)
    draws = []
    for _ in range(count):
        c = consumers[rng.randrange(n_cons)]
        draws.append((c, bisect_right(cumulative, rng.random())))
    return tuple(draws)
