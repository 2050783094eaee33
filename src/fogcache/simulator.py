"""Deterministic interest-routing simulation: role split, nearest-replica
forwarding, hit/forward accounting, optional LRU churn, and the two metrics."""
from __future__ import annotations

import random
from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .catalog import InterestWorkload
from .graph import PathCache, Topology, cache_for
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


def _check_draws(pairs, consumers) -> None:
    """Raise on the first (consumer, item) draw whose consumer lacks the
    consumer role or whose item rank lies outside [0, 2^63)."""
    consumers = set(consumers)
    for c, item in pairs:
        if c not in consumers:
            raise ValueError(f"workload consumer {c} lacks the consumer role")
        if not 0 <= item < 2 ** 63:
            raise ValueError(f"invalid item rank {item}")


class Demand:
    """The workload side of a static run, built once and read by every static
    run over the same cache, consumer set and workload: a repetition's static
    cells differ only in their holders.  It holds the distinct (consumer,
    item) draws, validated and in first-seen order, with their counts; the
    distinct items and consumers and each pair's index into them; and the
    consumers' stored distance rows, stacked in their stored dtype and read
    unsigned, so UNREACHABLE is the largest."""

    def __init__(self, cache: PathCache, consumers, workload: InterestWorkload):
        tally = Counter(workload.draws)  # keys in first-seen order
        _check_draws(tally, consumers)
        self.cache, self.consumers, self.workload = cache, tuple(consumers), workload
        pairs = np.fromiter(chain.from_iterable(tally), np.int64,
                            count=2 * len(tally)).reshape(-1, 2)
        self.counts = np.fromiter(tally.values(), np.int64, count=len(tally))
        self.consumer, item = pairs.T
        self.items, self.at = np.unique(item, return_inverse=True)
        sources, self.row = np.unique(self.consumer, return_inverse=True)
        dist = np.array([cache.dist_from(u) for u in sources.tolist()])
        self.dist = dist.view(f"u{dist.itemsize}")


def _route_static(demand: Demand, assignment: CacheAssignment):
    """Every distinct (consumer, item) pair of ``demand`` routed at once and
    weighted by its count, by the nearest-holder rule: the least distance,
    ties to the smaller id, where the origin always holds the item and a
    consumer at distance 0 serves itself.  Pairs are grouped by the size of
    their item's holder list (the holders plus the origin, ascending), so
    each group picks its servers with one (pairs × holders) gather of the
    demand's distance rows and one ``argmin``: the first least distance is
    the least (distance, id).  Returns the interests per outcome, the cache
    responses per node, and the (consumer, server, hops) route of each pair
    served from a cache or the origin with its count."""
    topology = demand.cache.topology
    n, origin = topology.node_count, topology.origin
    dist, counts = demand.dist, demand.counts
    holders = assignment.holders_by_item()
    lists = [sorted(holders.get(i, set()) | {origin}) for i in demand.items.tolist()]
    size = np.fromiter(map(len, lists), np.int64, count=len(lists))
    server = np.zeros(counts.size, dtype=np.int64)
    hops = np.zeros(counts.size, dtype=np.int64)
    pair_size = size.take(demand.at)
    for s in np.flatnonzero(np.bincount(pair_size)).tolist():  # sizes that occur
        sel = np.flatnonzero(pair_size == s)
        group_items = np.flatnonzero(size == s)
        # holder ids as narrow as the node ids, so no (pairs × holders) array
        # is wider than they are
        group = np.array([lists[j] for j in group_items.tolist()],
                         dtype=np.min_scalar_type(n))
        group = group.take(np.searchsorted(group_items, demand.at.take(sel)), axis=0)
        d = dist[demand.row.take(sel)[:, None], group]
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
    routes = np.column_stack([demand.consumer, server, hops])[reached]
    return served, responses, routes, counts[reached]


def _route_lru(cache: PathCache, assignment: CacheAssignment,
               roles: RoleAssignment, draws):
    """The interests of an LRU run in order, one at a time, with
    :func:`_route_static`'s return values and nearest-holder rule.  Each
    consumer's distance row is read once per run, unsigned, so UNREACHABLE
    is the largest.  Every provider on the return path of an origin-served
    interest inserts the item, evicting its least-recently-used entry at
    capacity, and cache hits refresh recency.  Served interests are keyed
    ``consumer * n + server`` and counted once at the end.  A route's hops
    never change within a run, so each origin-served route's (provider,
    recency state) pairs are memoized by its key."""
    topology = cache.topology
    n, origin = topology.node_count, topology.origin
    _check_draws(draws, roles.consumers)
    holders: dict[int, set[int]] = assignment.holders_by_item()
    empty: set[int] = set()
    provider_set = set(roles.providers)
    capacity = assignment.buffer_items
    # per-provider recency state, least-recent first; seed it with the
    # placed contents so the least popular item is evicted first
    lru = {v: OrderedDict() for v in provider_set}
    lru.update((v, OrderedDict.fromkeys(reversed(assignment.items_at(v))))
               for v in assignment.nodes())
    rows: dict[int, memoryview] = {}
    keys: list[int] = []
    route_providers: dict[int, tuple] = {}
    toward_origin = None  # the origin's next-hop tree, read at its first route
    own = 0
    for c, item in draws:
        row = rows.get(c)
        if row is None:
            row = cache.dist_from(c)
            far = 256 ** row.itemsize - 1  # UNREACHABLE, read unsigned
            row = rows[c] = row.cast("B").cast(row.format.upper())
        best, server = row[origin], origin
        for h in holders.get(item, empty):
            d = row[h]
            if d < best or (d == best and h < server):
                best, server = d, h
        if best == 0:
            own += 1
            continue
        if best == far:
            continue
        key = c * n + server
        keys.append(key)
        if server != origin:
            lru[server].move_to_end(item)
            continue
        # every hop is strictly nearer the consumer than the nearest holder,
        # so none of them holds the item and the insertion order across the
        # route's providers does not matter
        on_route = route_providers.get(key)
        if on_route is None:
            if toward_origin is None:
                toward_origin = cache.next_hops(origin)
            on_route, v = [], toward_origin[c]
            for _ in range(best - 1):
                if v in provider_set:
                    on_route.append((v, lru[v]))
                v = toward_origin[v]
            on_route = route_providers[key] = tuple(on_route)
        item_holders = holders.setdefault(item, set())
        for v, state in on_route:
            state[item] = None
            item_holders.add(v)
            if len(state) > capacity:
                evicted, _ = state.popitem(False)
                holders[evicted].discard(v)
    pairs, counts = np.unique(np.array(keys, dtype=np.int64), return_counts=True)
    consumer, server = np.divmod(pairs, n)
    hops = np.array([rows[c][s] for c, s in zip(consumer.tolist(), server.tolist())],
                    dtype=np.int64)
    at_cache = server != origin
    responses = np.zeros(n, dtype=np.int64)
    np.add.at(responses, server[at_cache], counts[at_cache])
    cached = int(counts[at_cache].sum())
    served = {"self": own, "cache": cached, "origin": len(keys) - cached,
              "none": len(draws) - own - len(keys)}
    return served, responses, np.column_stack([consumer, server, hops]), counts


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
                   path_cache: PathCache | None = None,
                   demand: Demand | None = None) -> SimMetrics:
    """Route the workload and accumulate counters.

    Static caches make an interest's outcome depend only on its (consumer,
    item) pair, so :func:`_route_static` routes each distinct pair once, as
    array passes, weighted by its count.  The pairs and their distance rows
    come from ``demand``, or from a new :class:`Demand` without one; pass
    one to share it between the static runs of one workload.  A demand
    built for another cache (pass its ``cache`` as ``path_cache``), consumer
    set or workload is refused.  With ``lru_enabled`` (social-unaware
    baseline) :func:`_route_lru` takes the interests in order, since each
    origin-served one changes the caches on its return path.  Either way
    forward counts are added after routing, by one stacked walk over every
    route (:func:`_forward_counts`)."""
    n = topology.node_count
    for v in assignment.nodes():
        if not 0 <= v < n:
            raise ValueError(f"assignment references unknown node {v}")
    cache = cache_for(topology, path_cache)
    if demand is not None and (demand.cache is not cache
                               or demand.consumers != tuple(roles.consumers)
                               or demand.workload != workload):
        raise ValueError("demand was built for another cache, consumer set "
                         "or workload")
    if lru_enabled:
        served, responses, routes, counts = _route_lru(cache, assignment, roles,
                                                       workload.draws)
    else:
        if demand is None:
            demand = Demand(cache, roles.consumers, workload)
        served, responses, routes, counts = _route_static(demand, assignment)
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
