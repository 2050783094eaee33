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
    ``density`` (urban-style local connectivity), found with a fixed-radius
    cell list (Bentley, Stanat & Williams 1977); "grid": rectangular lattice
    (``density`` unused); "erdos_renyi": each pair linked with probability
    ``density``, an O(n^2) scan by design since its per-pair draw order
    defines the graph.  ``density`` must not be NaN or negative for either.
    Warns when the giant component holds < 95% of the nodes.

    The origin is placed at the most peripheral node (largest total shortest-
    path distance, ties to the smaller id): the full-catalog service gateway
    sits at the network edge, so cache misses pay a real detour instead of
    terminating at a well-connected hub.
    """
    if node_count < 2:
        raise ValueError("node_count must be >= 2")
    if kind in ("geometric", "erdos_renyi") and not density >= 0:
        raise ValueError(f"density must be a non-negative number, got {density!r}")
    if kind == "geometric":
        rng = random.Random(seed)
        edges = _geometric_edges(
            [(rng.random(), rng.random()) for _ in range(node_count)], density)
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


def _geometric_edges(points, radius):
    """Sorted (i, j), i < j, pairs of points within ``radius``, from a
    fixed-radius cell list: each point is tested only against the points in
    its own and the 8 neighbouring cells of a k x k grid over the unit square.
    The cells are slightly wider than ``radius``, so rounding in a cell index
    cannot drop a pair; k is capped near sqrt(n), about one point per cell,
    which also bounds it for a zero radius."""
    width = abs(radius) * (1 + 1e-9)
    k = math.isqrt(len(points)) + 1
    if width * k > 1:
        k = max(1, int(1 / width))
    where = [(int(x * k), int(y * k)) for x, y in points]
    cells: dict[tuple[int, int], list[int]] = {}
    for i, cell in enumerate(where):
        cells.setdefault(cell, []).append(i)
    r2 = radius * radius
    edges = []
    for i, ((xi, yi), (cx, cy)) in enumerate(zip(points, where)):
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                for j in cells.get((nx, ny), ()):
                    xj, yj = points[j]
                    if j > i and (xi - xj) ** 2 + (yi - yj) ** 2 <= r2:
                        edges.append((i, j))
    return sorted(edges)
