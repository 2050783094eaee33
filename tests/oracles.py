"""Independent brute-force oracles used to cross-check the fast paths.

Everything here recomputes from first principles (plain-dict BFS, explicit
path enumeration, hop-by-hop routing) and deliberately shares no code with the
package.
"""
from __future__ import annotations

import random
from collections import OrderedDict, deque


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
