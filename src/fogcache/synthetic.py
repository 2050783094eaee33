"""Seeded synthetic topology generation (stand-ins for measured snapshots)."""
from __future__ import annotations

import math
import random
import warnings

import numpy as np

from .graph import Topology, _adjacency, _csr, _farness

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
    Warns when the giant component holds < 95% of the nodes; of equal-size
    largest components, the one holding the smallest id is the giant.

    The origin is placed at the most peripheral node (largest total shortest-
    path distance, ties to the smaller id): the full-catalog service gateway
    sits at the network edge, so cache misses pay a real detour instead of
    terminating at a well-connected hub.  One all-sources BFS over the whole
    graph yields both: the giant component is the reach of its smallest
    node, and distances within it do not depend on the rest.
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
        ids = np.arange(node_count).reshape(rows, -1)
        edges = np.concatenate([
            np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
            np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1)])
    elif kind == "erdos_renyi":
        rng = random.Random(seed)
        edges = np.array([(i, j) for i in range(node_count)
                          for j in range(i + 1, node_count)
                          if rng.random() < density], dtype=np.int64).reshape(-1, 2)
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    if not len(edges):
        raise ValueError("generation parameters yielded an empty edge set")

    label = f"{kind}-n{node_count}-d{density:g}-s{seed}"
    indptr, indices = _csr(node_count, *np.concatenate([edges, edges[:, ::-1]]).T)
    size, far, reach = _farness(indptr, indices)
    # argmax: the smallest node of a largest component
    row = reach[size.argmax()].astype("<u8").view(np.uint8)
    giant = np.flatnonzero(np.unpackbits(row, bitorder="little"))
    if len(giant) < 0.95 * node_count:
        warnings.warn(
            f"{label}: giant component holds {len(giant)}/{node_count} nodes",
            stacklevel=2)
    # the giant's rows in ascending id, their neighbours renumbered densely
    keep = np.zeros(node_count, dtype=bool)
    keep[giant] = True
    degree = np.diff(indptr)
    giant_indptr = np.concatenate([[0], np.cumsum(degree.take(giant))])
    giant_indices = (np.cumsum(keep) - 1).take(indices[np.repeat(keep, degree)])
    return Topology(adjacency=_adjacency(giant_indptr, giant_indices),
                    origin=int(far.take(giant).argmax()),
                    original_ids=tuple(giant.tolist()))


def _geometric_edges(points, radius) -> np.ndarray:
    """The (i, j), i < j, pairs of points in the unit square within
    ``radius`` of each other, each once and in no particular order, as an
    (m, 2) int64 array, from a fixed-radius cell list: each point is tested
    only against the points in its own and the 8 neighbouring cells of a
    k x k grid over the unit square.  The cells are slightly wider than
    ``radius``, so rounding in a cell index cannot drop a pair; k is capped
    near sqrt(n), about one point per cell, which also bounds it for a zero
    radius."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    width = abs(radius) * (1 + 1e-9)
    k = math.isqrt(n) + 1
    if width * k > 1:
        k = max(1, int(1 / width))
    # cell (x, y) -> (x + 1) * side + y + 1 on a grid padded by one cell on
    # each side, so every neighbour of an occupied cell is a cell; a
    # coordinate of 1.0 takes cell k
    side = k + 3
    cx, cy = (points * k).astype(np.int64).T
    cell = (cx + 1) * side + cy + 1
    by_cell = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=side * side)
    starts = np.cumsum(counts) - counts
    neighbours = np.array([-side - 1, -side, -side + 1, -1, 0, 1,
                           side - 1, side, side + 1])
    other = (cell[:, None] + neighbours).ravel()
    found = counts.take(other)
    # each point against every point of each of its 9 cells
    i = np.repeat(np.arange(n).repeat(neighbours.size), found)
    j = by_cell.take(np.arange(found.sum())
                     + np.repeat(starts.take(other) - np.cumsum(found) + found, found))
    i, j = i[j > i], j[j > i]
    dx, dy = (points.take(i, axis=0) - points.take(j, axis=0)).T
    dist2 = dx * dx + dy * dy
    r2 = radius * radius
    # Python's ** (libm pow) may round a square one unit away from d * d:
    # sums this close to r2 are decided with **, as a pair scan decides them
    for p in np.flatnonzero(np.abs(dist2 - r2) <= r2 * 2.0 ** -48).tolist():
        (xi, yi), (xj, yj) = points[i[p]].tolist(), points[j[p]].tolist()
        dist2[p] = (xi - xj) ** 2 + (yi - yj) ** 2
    within = dist2 <= r2
    return np.stack([i[within], j[within]], axis=1)
