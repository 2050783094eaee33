"""Content catalog, Zipf popularity, and seeded interest workloads."""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate


@dataclass(frozen=True)
class ContentCatalog:
    """N unit-size content chunks with rank-ordered popularity (rank 0 is the
    most popular item)."""

    popularity: tuple[float, ...]

    def __post_init__(self):
        if not self.popularity:
            raise ValueError("catalog must contain at least one item")
        if any(not p > 0 for p in self.popularity):
            raise ValueError("popularity values must be strictly positive")
        if any(a < b for a, b in zip(self.popularity, self.popularity[1:])):
            raise ValueError("popularity must be non-increasing in rank")
        if not abs(sum(self.popularity) - 1.0) <= 1e-12:
            raise ValueError("popularity must sum to 1")

    @property
    def size(self) -> int:
        return len(self.popularity)


def zipf_popularity(n: int, exponent: float = 1.0) -> tuple[float, ...]:
    """p_k = k^(-exponent) / sum_j j^(-exponent), k = 1..n."""
    if n < 1:
        raise ValueError("catalog size must be >= 1")
    if not exponent > 0:
        raise ValueError("exponent must be positive")
    weights = [k ** -exponent for k in range(1, n + 1)]
    total = sum(weights)
    return tuple(w / total for w in weights)


def zipf_catalog(n: int, exponent: float = 1.0) -> ContentCatalog:
    return ContentCatalog(popularity=zipf_popularity(n, exponent))


@dataclass(frozen=True)
class InterestWorkload:
    """Seeded sequence of (consumer node id, item rank) interest draws."""

    draws: tuple[tuple[int, int], ...]
    seed: int


def generate_interests(catalog: ContentCatalog, consumers, count: int,
                       seed: int) -> InterestWorkload:
    """Draw ``count`` interests: consumer uniform, item rank by inverse-CDF
    over the catalog popularity.  Pure function of its arguments."""
    consumers = sorted(set(consumers))
    if count < 0:
        raise ValueError("count must be >= 0")
    if not consumers and count > 0:
        raise ValueError("cannot generate interests for an empty consumer set")
    cumulative = list(accumulate(catalog.popularity))
    cumulative[-1] = 1.0  # no float undershoot: each random() < 1.0 has a rank
    rng = random.Random(seed)
    n_cons = len(consumers)
    draws = []
    for _ in range(count):
        c = consumers[rng.randrange(n_cons)]
        draws.append((c, bisect_right(cumulative, rng.random())))
    return InterestWorkload(draws=tuple(draws), seed=seed)
