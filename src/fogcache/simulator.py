"""Deterministic interest-routing simulation: role split, nearest-replica
forwarding, hit/forward accounting, optional LRU churn, and the two metrics."""
from __future__ import annotations

import random
from collections import Counter, OrderedDict
from dataclasses import dataclass, field

from .catalog import InterestWorkload
from .graph import UNREACHABLE, PathCache, Topology
from .placement import CacheAssignment


@dataclass(frozen=True)
class RoleAssignment:
    """Partition of the non-origin nodes into consumers, providers (caching
    enabled) and passive forwarders."""

    consumers: tuple[int, ...]
    providers: tuple[int, ...]
    passive: tuple[int, ...]
    seed: int


def assign_roles(topology: Topology, consumer_frac: float, provider_frac: float,
                 seed: int) -> RoleAssignment:
    """Seeded sampling without replacement; the origin takes no role."""
    if not 0.0 <= consumer_frac <= 1.0 or not 0.0 <= provider_frac <= 1.0:
        raise ValueError("role fractions must lie in [0, 1]")
    if consumer_frac + provider_frac > 1.0 + 1e-12:
        raise ValueError("role fractions must sum to at most 1")
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


@dataclass(frozen=True)
class RouteOutcome:
    served_from: str  # one of "self", "cache", "origin", "none"
    server: int | None
    path: tuple[int, ...]  # consumer..server inclusive; empty for self/none


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
    """First routing step: the holder nearest to ``consumer``, ties to the
    smaller id, where the origin always holds the item.  Returns
    ``(served_from, server)``."""
    origin = cache.topology.origin
    if consumer in holders or consumer == origin:
        return "self", consumer
    dist = cache.dist_from(consumer)
    best, server = dist[origin], origin
    if best == UNREACHABLE:
        best, server = len(dist), None  # farther than any reachable node
    for h in holders:
        d = dist[h]
        if d != UNREACHABLE and (d < best or (d == best and h < server)):
            best, server = d, h
    if server is None:
        return "none", None
    return ("origin" if server == origin else "cache"), server


def _walk(cache: PathCache, consumer: int, server: int):
    """Second routing step: the hops strictly between ``consumer`` and
    ``server`` on the server's next-hop tree.  Each hop is strictly closer to
    ``consumer`` than the nearest holder, so none of them holds the item."""
    hops = cache.next_hops(server)
    v = hops[consumer]
    while v != server:
        yield v
        v = hops[v]


def route_interest(topology: Topology, caches, consumer: int, item: int,
                   cache: PathCache | None = None) -> RouteOutcome:
    """Route one interest given explicit per-node cache contents.

    ``caches`` maps node id -> current item container; the origin is always a
    holder regardless of ``caches``.
    """
    if item < 0:
        raise ValueError(f"invalid item rank {item}")
    cache = cache or PathCache(topology)
    holders = {node for node, items in caches.items() if item in items}
    served, server = _choose_server(cache, holders, consumer)
    if served in ("self", "none"):
        return RouteOutcome(served_from=served, server=server, path=())
    path = (consumer, *_walk(cache, consumer, server), server)
    return RouteOutcome(served_from=served, server=server, path=path)


def run_simulation(topology: Topology, assignment: CacheAssignment,
                   roles: RoleAssignment, workload: InterestWorkload,
                   lru_enabled: bool = False,
                   path_cache: PathCache | None = None) -> SimMetrics:
    """Process the workload in order, accumulating counters.

    With ``lru_enabled`` (social-unaware baseline), every provider on the
    return path of an origin-served interest inserts the item, evicting its
    least-recently-used entry at capacity; cache hits refresh recency.  All
    other schemes keep their placed caches static.
    """
    n = topology.node_count
    cache = path_cache or PathCache(topology)
    consumer_set = set(roles.consumers)
    for c, item in workload.draws:
        if c not in consumer_set:
            raise ValueError(f"workload consumer {c} lacks the consumer role")
        if item < 0:
            raise ValueError(f"invalid item rank {item}")
    holders: dict[int, set[int]] = assignment.holders_by_item()
    empty: set[int] = set()
    served_counts: Counter[str] = Counter()
    responses = [0] * n
    forwards = [0] * n

    if not lru_enabled:
        # static caches: outcomes depend only on the (consumer, item) pair,
        # so route each distinct pair once
        for (c, item), count in Counter(workload.draws).items():
            served, server = _choose_server(cache, holders.get(item, empty), c)
            served_counts[served] += count
            if served == "cache":
                responses[server] += count
            elif served != "origin":
                continue
            for v in _walk(cache, c, server):
                forwards[v] += count
    else:
        provider_set = set(roles.providers)
        capacity = assignment.buffer_items
        # per-provider recency state, least-recent first; seed it with the
        # placed contents so the least popular item is evicted first
        lru: dict[int, OrderedDict[int, None]] = {}
        for v in assignment.nodes():
            lru[v] = OrderedDict((item, None)
                                 for item in reversed(assignment.items_at(v)))
        for c, item in workload.draws:
            served, server = _choose_server(cache, holders.get(item, empty), c)
            served_counts[served] += 1
            if served == "cache":
                responses[server] += 1
                lru[server].move_to_end(item)
            elif served != "origin":
                continue
            for v in _walk(cache, c, server):
                forwards[v] += 1
                if served == "cache" or v not in provider_set:
                    continue
                state = lru.setdefault(v, OrderedDict())
                if item in state:
                    state.move_to_end(item)
                    continue
                state[item] = None
                holders.setdefault(item, set()).add(v)
                if len(state) > capacity:
                    evicted, _ = state.popitem(last=False)
                    holders[evicted].discard(v)

    # a node receives every interest it forwards or serves
    received = [f + r for f, r in zip(forwards, responses)]
    received[topology.origin] += served_counts["origin"]
    metrics = SimMetrics(providers=roles.providers,
                         interests_received=received,
                         cache_responses=responses,
                         forwards=forwards,
                         interests_generated=len(workload.draws),
                         satisfied_from_cache=served_counts["cache"],
                         satisfied_from_origin=served_counts["origin"],
                         satisfied_self=served_counts["self"],
                         unsatisfied=served_counts["none"])
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
