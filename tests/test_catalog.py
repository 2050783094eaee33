from collections import Counter

import pytest
from scipy import stats

from fogcache.catalog import (ContentCatalog, generate_interests, zipf_catalog,
                              zipf_popularity)


def harmonic(n, exponent=1.0):
    return sum(k ** -exponent for k in range(1, n + 1))


class TestZipfPopularity:
    def test_single_item(self):
        assert zipf_popularity(1, 2.3) == (1.0,)

    def test_three_items_exponent_one(self):
        p = zipf_popularity(3, 1.0)
        assert p[0] == pytest.approx(6 / 11)
        assert p[1] == pytest.approx(3 / 11)
        assert p[2] == pytest.approx(2 / 11)

    def test_hundred_items(self):
        p = zipf_popularity(100, 1.0)
        assert p[0] == pytest.approx(1 / harmonic(100), abs=1e-15)
        assert p[0] / p[1] == 2.0

    @pytest.mark.parametrize("n", [1, 10, 100, 10_000])
    def test_sums_to_one(self, n):
        assert abs(sum(zipf_popularity(n, 1.0)) - 1.0) <= 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            zipf_popularity(0, 1.0)
        with pytest.raises(ValueError):
            zipf_popularity(5, 0.0)
        with pytest.raises(ValueError):
            zipf_popularity(5, float("nan"))


class TestContentCatalog:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContentCatalog(popularity=())
        with pytest.raises(ValueError):
            ContentCatalog(popularity=(0.4, 0.6))  # increasing in rank
        with pytest.raises(ValueError):
            ContentCatalog(popularity=(0.5, 0.4))  # does not sum to 1
        with pytest.raises(ValueError):
            ContentCatalog(popularity=(float("nan"),))
        with pytest.raises(ValueError):
            ContentCatalog(popularity=(1.0, float("nan")))

    def test_defaults(self):
        catalog = zipf_catalog(100)
        assert catalog.size == 100


class TestGenerateInterests:
    def test_empty_count(self):
        workload = generate_interests(zipf_catalog(10), [1, 2], 0, seed=3)
        assert workload.draws == ()

    def test_single_item_catalog(self):
        workload = generate_interests(zipf_catalog(1), [5], 20, seed=3)
        assert all(rank == 0 for _, rank in workload.draws)
        assert all(c == 5 for c, _ in workload.draws)

    def test_empty_consumers_rejected(self):
        with pytest.raises(ValueError, match="consumer"):
            generate_interests(zipf_catalog(10), [], 5, seed=0)

    def test_deterministic_in_seed(self):
        catalog = zipf_catalog(50)
        a = generate_interests(catalog, [1, 2, 3], 500, seed=11)
        b = generate_interests(catalog, [3, 2, 1], 500, seed=11)
        c = generate_interests(catalog, [1, 2, 3], 500, seed=12)
        assert a == b
        assert a.draws != c.draws

    def test_rank_one_empirical_frequency(self):
        catalog = zipf_catalog(100)
        workload = generate_interests(catalog, [0], 100_000, seed=5)
        freq = sum(1 for _, r in workload.draws if r == 0) / 100_000
        assert abs(freq - 1 / harmonic(100)) < 0.01

    def test_item_frequencies_chi_square(self):
        catalog = zipf_catalog(20)
        count = 100_000
        workload = generate_interests(catalog, [0, 1], count, seed=9)
        observed = Counter(r for _, r in workload.draws)
        obs = [observed.get(r, 0) for r in range(20)]
        expected = [p * count for p in catalog.popularity]
        _, pvalue = stats.chisquare(obs, expected)
        assert pvalue > 0.001

    def test_consumers_drawn_uniformly(self):
        workload = generate_interests(zipf_catalog(5), [3, 7, 9], 30_000, seed=2)
        counts = Counter(c for c, _ in workload.draws)
        for node in (3, 7, 9):
            assert abs(counts[node] / 30_000 - 1 / 3) < 0.02
