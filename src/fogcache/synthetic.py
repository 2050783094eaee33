"""Seeded synthetic topology generation (stand-ins for measured snapshots)."""
from __future__ import annotations

import math
import random
import warnings

from .graph import Topology, connected_components, farness, from_edges

KINDS = ("geometric", "grid", "erdos_renyi")


def generate_synthetic_topology(kind: str, node_count: int, density: float,
                                seed: int) -> Topology:
    """Deterministic synthetic connectivity graph, restricted to its giant
    component.

    kind "geometric": uniform points in the unit square, edges within radius
    ``density`` (urban-style local connectivity); "grid": rectangular lattice
    (``density`` unused); "erdos_renyi": each pair linked with probability
    ``density``.  Warns when the giant component holds < 95% of the nodes.

    The origin is placed at the most peripheral node (largest total shortest-
    path distance, ties to the smaller id): the full-catalog service gateway
    sits at the network edge, so cache misses pay a real detour instead of
    terminating at a well-connected hub.
    """
    if node_count < 2:
        raise ValueError("node_count must be >= 2")
    if kind == "geometric":
        rng = random.Random(seed)
        pts = [(rng.random(), rng.random()) for _ in range(node_count)]
        r2 = density * density
        edges = [(i, j) for i in range(node_count) for j in range(i + 1, node_count)
                 if (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2 <= r2]
    elif kind == "grid":
        rows = math.isqrt(node_count)
        while node_count % rows:
            rows -= 1
        cols = node_count // rows
        edges = []
        for i in range(node_count):
            r, c = divmod(i, cols)
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    elif kind == "erdos_renyi":
        rng = random.Random(seed)
        edges = [(i, j) for i in range(node_count) for j in range(i + 1, node_count)
                 if rng.random() < density]
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    if not edges:
        raise ValueError("generation parameters yielded an empty edge set")

    label = f"{kind}-n{node_count}-d{density:g}-s{seed}"
    full = from_edges(edges, nodes=range(node_count))
    giant = max(connected_components(full), key=lambda c: (len(c), -min(c)))
    if len(giant) < 0.95 * node_count:
        warnings.warn(
            f"{label}: giant component holds {len(giant)}/{node_count} nodes",
            stacklevel=2)
    # distances within the giant component do not depend on the rest
    _, far = farness(full)
    keep = set(giant)
    return from_edges([(a, b) for a, b in edges if a in keep and b in keep],
                      origin_spec=max(giant, key=lambda v: (far[v], -v)))
