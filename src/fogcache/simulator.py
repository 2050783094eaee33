"""Deterministic interest-routing simulation: role split, nearest-replica
forwarding, hit/forward accounting, optional LRU churn, and the two metrics."""
from __future__ import annotations

import random
from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .catalog import InterestWorkload
from .graph import UNREACHABLE, PathCache, Topology, cache_for
from .placement import CacheAssignment


@dataclass(frozen=True)
class RoleAssignment:
    """Partition of the non-origin nodes into consumers, providers (caching
    enabled) and passive forwarders."""

    consumers: tuple[int, ...]
    providers: tuple[int, ...]
    passive: tuple[int, ...]
    seed: int


def check_role_fractions(consumer_frac: float, provider_frac: float) -> None:
    if not 0.0 <= consumer_frac <= 1.0 or not 0.0 <= provider_frac <= 1.0:
        raise ValueError("role fractions must lie in [0, 1]")
    if consumer_frac + provider_frac > 1.0 + 1e-12:
        raise ValueError("role fractions must sum to at most 1")


def assign_roles(topology: Topology, consumer_frac: float, provider_frac: float,
                 seed: int) -> RoleAssignment:
    """Seeded sampling without replacement; the origin takes no role."""
    check_role_fractions(consumer_frac, provider_frac)
    n = topology.node_count
    pool = [v for v in range(n) if v != topology.origin]
    n_consumers = min(round(consumer_frac * n), len(pool))
    n_providers = min(round(provider_frac * n), len(pool) - n_consumers)
    rng = random.Random(seed)
    chosen = rng.sample(pool, n_consumers + n_providers)
    consumers = tuple(sorted(chosen[:n_consumers]))
    providers = tuple(sorted(chosen[n_consumers:]))
    taken = set(chosen)
    passive = tuple(v for v in pool if v not in taken)
    return RoleAssignment(consumers=consumers, providers=providers,
                          passive=passive, seed=seed)


@dataclass
class SimMetrics:
    """Per-node and global counters of one simulation run."""

    providers: tuple[int, ...]
    interests_received: list[int]
    cache_responses: list[int]
    forwards: list[int]
    interests_generated: int = 0
    satisfied_from_cache: int = 0
    satisfied_from_origin: int = 0
    satisfied_self: int = 0
    unsatisfied: int = 0


def _choose_server(cache: PathCache, holders, consumer: int):
    """First routing step of an LRU interest: the holder nearest to
    ``consumer``, ties to the smaller id, where the origin always holds the
    item.  A consumer that holds the item, or is the origin, is the one
    holder at distance 0 and serves itself.  Returns ``(served_from, server,
    hops)``, ``hops`` the server's distance."""
    origin = cache.topology.origin
    dist = cache.dist_from(consumer)
    best, server = dist[origin], origin
    if best == UNREACHABLE:
        best, server = len(dist), None  # farther than any reachable node
    for h in holders:
        d = dist[h]
        if d != UNREACHABLE and (d < best or (d == best and h < server)):
            best, server = d, h
    if server is None:
        return "none", None, None
    outcome = "self" if best == 0 else "origin" if server == origin else "cache"
    return outcome, server, best


def _check_draws(pairs, consumers) -> None:
    """Raise on the first (consumer, item) draw whose consumer lacks the
    consumer role or whose item rank lies outside [0, 2^63)."""
    consumers = set(consumers)
    for c, item in pairs:
        if c not in consumers:
            raise ValueError(f"workload consumer {c} lacks the consumer role")
        if not 0 <= item < 2 ** 63:
            raise ValueError(f"invalid item rank {item}")


def _route_static(cache: PathCache, assignment: CacheAssignment,
                  roles: RoleAssignment, draws):
    """Every distinct (consumer, item) pair of a static run routed at once and
    weighted by its count, by :func:`_choose_server`'s rule.  Pairs are
    grouped by the size of their item's holder list (the holders plus the
    origin, ascending), so each group picks its servers with one (pairs ×
    holders) gather of stored distance rows and one ``argmin``: the first
    least distance is the least (distance, id), and a pair served at
    distance 0 serves itself.  Returns the interests per outcome, the cache
    responses per node, and the (consumer, server, hops) route of each pair
    served from a cache or the origin with its count."""
    topology = cache.topology
    n, origin = topology.node_count, topology.origin
    tally = Counter(draws)  # keys in first-seen order
    _check_draws(tally, roles.consumers)
    pairs = np.fromiter(chain.from_iterable(tally), np.int64,
                        count=2 * len(tally)).reshape(-1, 2)
    counts = np.fromiter(tally.values(), np.int64, count=len(tally))
    consumer, item = pairs.T
    items, at = np.unique(item, return_inverse=True)
    holders = assignment.holders_by_item()
    lists = [sorted(holders.get(i, set()) | {origin}) for i in items.tolist()]
    size = np.fromiter(map(len, lists), np.int64, count=len(lists))
    # the stored distance row of every consumer, stacked in its stored dtype
    # and read unsigned: UNREACHABLE is the largest
    sources, row = np.unique(consumer, return_inverse=True)
    dist = np.array([cache.dist_from(u) for u in sources.tolist()])
    dist = dist.view(f"u{dist.itemsize}")
    server = np.zeros(len(tally), dtype=np.int64)
    hops = np.zeros(len(tally), dtype=np.int64)
    pair_size = size.take(at)
    for s in np.flatnonzero(np.bincount(pair_size)).tolist():  # sizes that occur
        sel = np.flatnonzero(pair_size == s)
        group_items = np.flatnonzero(size == s)
        # holder ids as narrow as the node ids, so no (pairs × holders) array
        # is wider than they are
        group = np.array([lists[j] for j in group_items.tolist()],
                         dtype=np.min_scalar_type(n))
        group = group.take(np.searchsorted(group_items, at.take(sel)), axis=0)
        d = dist[row.take(sel)[:, None], group]
        best = d.argmin(axis=1)
        pick = np.arange(sel.size)
        hops[sel] = d[pick, best]
        server[sel] = group[pick, best]
    own = hops == 0
    reached = ~own & (hops < np.iinfo(dist.dtype).max)
    at_cache = reached & (server != origin)
    responses = np.zeros(n, dtype=np.int64)
    np.add.at(responses, server[at_cache], counts[at_cache])
    served = {"self": int(counts[own].sum()),
              "cache": int(counts[at_cache].sum()),
              "origin": int(counts[reached & ~at_cache].sum()),
              "none": int(counts[~own & ~reached].sum())}
    routes = np.column_stack([consumer, server, hops])[reached]
    return served, responses, routes, counts[reached]


def _route_lru(cache: PathCache, assignment: CacheAssignment,
               roles: RoleAssignment, draws):
    """The interests of an LRU run in order, one at a time, with
    :func:`_route_static`'s return values.  Every provider on the return path
    of an origin-served interest inserts the item, evicting its
    least-recently-used entry at capacity, and cache hits refresh recency.
    A route's hops never change within a run, so the providers of each
    origin-served (consumer, server) route are memoized."""
    n = cache.topology.node_count
    _check_draws(draws, roles.consumers)
    holders: dict[int, set[int]] = assignment.holders_by_item()
    empty: set[int] = set()
    served: Counter[str] = Counter()
    responses = [0] * n
    # interests routed per (consumer, server, hops); a plain dict, as a
    # Counter's __missing__ on every new route is measurably slower
    route_counts: dict[tuple[int, int, int], int] = {}
    provider_set = set(roles.providers)
    capacity = assignment.buffer_items
    # per-provider recency state, least-recent first; seed it with the
    # placed contents so the least popular item is evicted first
    lru = {v: OrderedDict() for v in provider_set}
    lru.update((v, OrderedDict.fromkeys(reversed(assignment.items_at(v))))
               for v in assignment.nodes())
    route_providers: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for c, item in draws:
        outcome, server, hops_away = _choose_server(cache, holders.get(item, empty), c)
        served[outcome] += 1
        if outcome == "cache":
            responses[server] += 1
            lru[server].move_to_end(item)
        elif outcome != "origin":
            continue
        route = (c, server, hops_away)
        route_counts[route] = route_counts.get(route, 0) + 1
        if outcome != "origin":
            continue
        # every hop is strictly nearer the consumer than the nearest holder,
        # so none of them holds the item and the insertion order across the
        # route's providers does not matter
        on_route = route_providers.get(route)
        if on_route is None:
            hops = cache.next_hops(server)
            on_route, v = [], hops[c]
            for _ in range(hops_away - 1):
                if v in provider_set:
                    on_route.append(v)
                v = hops[v]
            on_route = route_providers[route] = tuple(on_route)
        item_holders = holders.setdefault(item, set())
        for v in on_route:
            state = lru[v]
            state[item] = None
            item_holders.add(v)
            if len(state) > capacity:
                evicted, _ = state.popitem(last=False)
                holders[evicted].discard(v)
    routes = np.array(list(route_counts), dtype=np.int64).reshape(-1, 3)
    counts = np.fromiter(route_counts.values(), np.int64, count=len(route_counts))
    return served, np.array(responses, dtype=np.int64), routes, counts


def _forward_counts(cache: PathCache, routes: np.ndarray,
                    counts: np.ndarray) -> np.ndarray:
    """Interests forwarded per node: each (consumer, server, hops) row of
    ``routes`` adds its count at every hop strictly between consumer and
    server on the server's next-hop tree.  All routes walk together over the
    servers' trees laid end to end, longest first, so each round moves a
    prefix of them one hop.  Every walk takes exactly ``hops - 1`` steps, so
    a broken tree (one with a cycle, say) raises instead of looping
    forever."""
    n = cache.topology.node_count
    forwards = np.zeros(n, dtype=np.int64)
    if not counts.size:
        return forwards
    by_length = np.argsort(-routes[:, 2])
    routes, counts = routes.take(by_length, axis=0), counts.take(by_length)
    consumer, server, hops = routes.T
    targets, tree = np.unique(server, return_inverse=True)
    trees = np.array([cache.next_hops(t) for t in targets.tolist()]).reshape(-1)
    base = tree * n
    at = base + consumer  # each walk's place in the trees
    # the routes still walking in round j are those longer than j hops
    for live in np.searchsorted(-hops, -np.arange(1, hops[0]), side="left").tolist():
        v = trees.take(at[:live])
        np.add.at(forwards, v, counts[:live])
        np.add(base[:live], v, out=at[:live])
    missed = np.flatnonzero(trees.take(at) != server)
    if missed.size:
        c, s, d = routes[missed[0]].tolist()
        raise RuntimeError(f"next hops from consumer {c} miss server "
                           f"{s} after {d} hops")
    return forwards


def run_simulation(topology: Topology, assignment: CacheAssignment,
                   roles: RoleAssignment, workload: InterestWorkload,
                   lru_enabled: bool = False,
                   path_cache: PathCache | None = None) -> SimMetrics:
    """Route the workload and accumulate counters.

    Static caches make an interest's outcome depend only on its (consumer,
    item) pair, so :func:`_route_static` routes each distinct pair once, as
    array passes, weighted by its count.  With ``lru_enabled``
    (social-unaware baseline) :func:`_route_lru` takes the interests in
    order, since each origin-served one changes the caches on its return
    path.  Either way forward counts are added after routing, by one stacked
    walk over every route (:func:`_forward_counts`)."""
    n = topology.node_count
    for v in assignment.nodes():
        if not 0 <= v < n:
            raise ValueError(f"assignment references unknown node {v}")
    cache = cache_for(topology, path_cache)
    route = _route_lru if lru_enabled else _route_static
    served, responses, routes, counts = route(cache, assignment, roles, workload.draws)
    forwards = _forward_counts(cache, routes, counts)
    # a node receives every interest it forwards or serves
    received = forwards + responses
    received[topology.origin] += served["origin"]
    metrics = SimMetrics(providers=roles.providers,
                         interests_received=received.tolist(),
                         cache_responses=responses.tolist(),
                         forwards=forwards.tolist(),
                         interests_generated=len(workload.draws),
                         satisfied_from_cache=served["cache"],
                         satisfied_from_origin=served["origin"],
                         satisfied_self=served["self"],
                         unsatisfied=served["none"])
    total = (metrics.satisfied_from_cache + metrics.satisfied_from_origin +
             metrics.satisfied_self + metrics.unsatisfied)
    assert total == metrics.interests_generated, "interest conservation violated"
    return metrics


def cache_hit_rate(metrics: SimMetrics) -> float:
    """Mean over providers that received interests of responses/received."""
    ratios = [metrics.cache_responses[v] / metrics.interests_received[v]
              for v in metrics.providers if metrics.interests_received[v] > 0]
    return sum(ratios) / len(ratios) if ratios else 0.0


def pooled_hit_rate(metrics: SimMetrics) -> float:
    """Network-wide diagnostic: total provider responses over total provider
    receipts."""
    received = sum(metrics.interests_received[v] for v in metrics.providers)
    if received == 0:
        return 0.0
    responses = sum(metrics.cache_responses[v] for v in metrics.providers)
    return responses / received


def success_rate(metrics: SimMetrics) -> float:
    """Fraction of generated interests that reached any copy of the content."""
    if metrics.interests_generated == 0:
        return 0.0
    satisfied = (metrics.satisfied_from_cache + metrics.satisfied_from_origin +
                 metrics.satisfied_self)
    return satisfied / metrics.interests_generated
