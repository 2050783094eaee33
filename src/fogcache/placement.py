"""Cache content placement: the score-ordered collaborative fill under a
replication factor, plus the greedy-popular and non-collaborative baselines."""
from __future__ import annotations

from dataclasses import dataclass

from .centrality import CentralityScores, ReplicationPolicy
from .graph import Topology


@dataclass(frozen=True)
class CacheAssignment:
    """Per-node cache contents split into a common portion (replicated across
    the fog) and a unique portion, plus the ordered fog membership."""

    scheme: str
    common_parts: dict[int, tuple[int, ...]]
    unique_parts: dict[int, tuple[int, ...]]
    fog: tuple[int, ...]
    buffer_items: int

    def nodes(self) -> list[int]:
        return sorted(set(self.common_parts) | set(self.unique_parts))

    def items_at(self, node: int) -> tuple[int, ...]:
        return self.common_parts.get(node, ()) + self.unique_parts.get(node, ())

    def holders_by_item(self) -> dict[int, set[int]]:
        holders: dict[int, set[int]] = {}
        for node in self.nodes():
            for item in self.items_at(node):
                holders.setdefault(item, set()).add(node)
        return holders


def place_fog(scores: CentralityScores, caching_nodes,
              policy: ReplicationPolicy) -> CacheAssignment:
    """Collaborative placement: nodes join the fog in decreasing score order,
    ties to the smaller id (dense ids ascend with original ids); each caches
    the policy's common class of most popular items plus its unique class,
    the most popular items not yet cached anywhere in the fog.

    Fill stops when the catalog is exhausted; late fog nodes may keep spare
    unique capacity empty.  No caching nodes give an empty fog.
    """
    caching = set(caching_nodes)
    for v in caching:
        if not 0 <= v < len(scores.raw):
            raise ValueError(f"invalid caching node id {v}")
    order = sorted(caching, key=lambda v: (-scores.raw[v], v))
    common, unique, _ = policy.layout(order)
    common = tuple(common)
    return CacheAssignment(scheme="fog", common_parts={v: common for v in order},
                           unique_parts={v: tuple(r) for v, r in unique.items()},
                           fog=tuple(order), buffer_items=policy.buffer_items)


def place_greedy_popular(caching_nodes, policy: ReplicationPolicy) -> CacheAssignment:
    """Social-unaware baseline: every caching node independently holds the
    top-b most popular items (runtime LRU dynamics then churn the contents)."""
    top = tuple(range(min(policy.buffer_items, policy.catalog_size)))
    nodes = sorted(set(caching_nodes))
    return CacheAssignment(scheme="greedy_popular",
                           common_parts={v: top for v in nodes},
                           unique_parts={v: () for v in nodes},
                           fog=tuple(nodes), buffer_items=policy.buffer_items)


def place_noncollaborative(caching_nodes, policy: ReplicationPolicy) -> CacheAssignment:
    """No-fog baseline: every caching node fills its buffer alone, so all
    hold the identical top-b items, unranked, and no fog set is formed."""
    top = tuple(range(min(policy.buffer_items, policy.catalog_size)))
    nodes = sorted(set(caching_nodes))
    return CacheAssignment(scheme="noncollaborative",
                           common_parts={v: () for v in nodes},
                           unique_parts={v: top for v in nodes},
                           fog=(), buffer_items=policy.buffer_items)


def fog_distinct_items(assignment: CacheAssignment) -> set[int]:
    items: set[int] = set()
    for v in assignment.nodes():
        items.update(assignment.items_at(v))
    return items


def export_assignment_csv(assignment: CacheAssignment, topology: Topology,
                          stream) -> None:
    """CSV rows: node_id, scheme, slot_index, item_rank, portion."""
    stream.write("node_id,scheme,slot_index,item_rank,portion\n")
    for v in assignment.nodes():
        slot = 0
        for item in assignment.common_parts.get(v, ()):
            stream.write(f"{topology.original_ids[v]},{assignment.scheme},"
                         f"{slot},{item},common\n")
            slot += 1
        for item in assignment.unique_parts.get(v, ()):
            stream.write(f"{topology.original_ids[v]},{assignment.scheme},"
                         f"{slot},{item},unique\n")
            slot += 1
