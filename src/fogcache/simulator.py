"""Deterministic interest-routing simulation: role split, nearest-replica
forwarding, hit/forward accounting, optional LRU churn, and the two metrics."""
from __future__ import annotations

import random
from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import repeat

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
    """First routing step: the holder nearest to ``consumer``, ties to the
    smaller id, where the origin always holds the item.  Returns
    ``(served_from, server, hops)``, ``hops`` the server's distance."""
    origin = cache.topology.origin
    if consumer in holders or consumer == origin:
        return "self", consumer, 0
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
    return ("origin" if server == origin else "cache"), server, best


def run_simulation(topology: Topology, assignment: CacheAssignment,
                   roles: RoleAssignment, workload: InterestWorkload,
                   lru_enabled: bool = False,
                   path_cache: PathCache | None = None) -> SimMetrics:
    """Route the workload and accumulate counters.

    One routing loop picks each interest's server.  Static caches make an
    interest's outcome depend only on its (consumer, item) pair, so each
    distinct pair is routed once, weighted by its count.  With
    ``lru_enabled`` (social-unaware baseline) interests go in order: every
    provider on the return path of an origin-served interest inserts the
    item, evicting its least-recently-used entry at capacity, and cache hits
    refresh recency.  A route's hops never change within a run, so the
    providers of each origin-served (consumer, server) route are memoized,
    and forward counts are added after the loop, one walk per distinct
    route."""
    n = topology.node_count
    for v in assignment.nodes():
        if not 0 <= v < n:
            raise ValueError(f"assignment references unknown node {v}")
    cache = path_cache or PathCache(topology)
    consumer_set = set(roles.consumers)
    holders: dict[int, set[int]] = assignment.holders_by_item()
    empty: set[int] = set()
    served_counts: Counter[str] = Counter()
    responses = [0] * n
    forwards = [0] * n
    # interests routed per (consumer, server, hops); a plain dict, as a
    # Counter's __missing__ on every new route is measurably slower
    route_counts: dict[tuple[int, int, int], int] = {}
    if lru_enabled:
        provider_set = set(roles.providers)
        capacity = assignment.buffer_items
        # per-provider recency state, least-recent first; seed it with the
        # placed contents so the least popular item is evicted first
        lru = {v: OrderedDict() for v in provider_set}
        lru.update((v, OrderedDict.fromkeys(reversed(assignment.items_at(v))))
                   for v in assignment.nodes())
        route_providers: dict[tuple[int, int, int], tuple[int, ...]] = {}
        interests = zip(workload.draws, repeat(1))
    else:
        interests = Counter(workload.draws).items()

    for (c, item), count in interests:
        if c not in consumer_set:
            raise ValueError(f"workload consumer {c} lacks the consumer role")
        if item < 0:
            raise ValueError(f"invalid item rank {item}")
        served, server, hops_away = _choose_server(cache, holders.get(item, empty), c)
        served_counts[served] += count
        if served == "cache":
            responses[server] += count
            if lru_enabled:
                lru[server].move_to_end(item)
        elif served != "origin":
            continue
        route = (c, server, hops_away)
        route_counts[route] = route_counts.get(route, 0) + count
        if not (lru_enabled and served == "origin"):
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

    # each hop strictly between consumer and server on the server's next-hop
    # tree forwards the route's interests; this walk and the LRU one take as
    # many steps as the distance, so a broken tree (one with a cycle, say)
    # raises here instead of looping forever
    for (c, server, hops_away), count in route_counts.items():
        hops = cache.next_hops(server)
        v = hops[c]
        for _ in range(hops_away - 1):
            forwards[v] += count
            v = hops[v]
        if v != server:
            raise RuntimeError(f"next hops from consumer {c} miss server "
                               f"{server} after {hops_away} hops")

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
