"""Unit tests for the memoizing evaluation cache."""

import numpy as np
import pytest

from repro.engine import EvaluationCache, canonical_point_key, evaluate_batch
from repro.exceptions import ModelDefinitionError


class TestFreezing:
    def test_order_insensitive(self):
        assert canonical_point_key({"a": 1, "b": 2.0}) == canonical_point_key({"b": 2, "a": 1.0})

    def test_value_coercion(self):
        assert canonical_point_key({"a": 1}) == canonical_point_key({"a": 1.0})


class TestCounters:
    def test_wrap_counts_hits_and_misses(self):
        cache = EvaluationCache()
        calls = []

        def evaluate(p):
            calls.append(dict(p))
            return p["x"] * 2

        cached = cache.wrap(evaluate)
        assert cached({"x": 1.0}) == 2.0
        assert cached({"x": 1.0}) == 2.0
        assert cached({"x": 2.0}) == 4.0
        assert len(calls) == 2
        assert (cache.hits, cache.misses) == (1, 2)
        assert cache.hit_rate == pytest.approx(1.0 / 3.0)
        assert len(cache) == 2

    def test_batch_dedupes_within_and_across_batches(self):
        cache = EvaluationCache()
        calls = []

        def evaluate(p):
            calls.append(1)
            return p["x"]

        first = evaluate_batch(evaluate, [{"x": 1.0}, {"x": 1.0}, {"x": 2.0}], cache=cache)
        assert len(calls) == 2
        assert first.stats.cache_hits == 1
        assert first.stats.cache_misses == 2
        second = evaluate_batch(evaluate, [{"x": 2.0}, {"x": 3.0}], cache=cache)
        assert len(calls) == 3
        assert second.stats.cache_hits == 1
        assert list(second.outputs) == [2.0, 3.0]
        # lifetime counters accumulate across batches
        assert (cache.hits, cache.misses) == (2, 3)

    def test_all_hits_batch(self):
        cache = EvaluationCache()
        evaluate_batch(lambda p: p["x"], [{"x": 5.0}], cache=cache)
        seen = []
        result = evaluate_batch(
            lambda p: p["x"], [{"x": 5.0}, {"x": 5.0}], cache=cache,
            progress=lambda d, t: seen.append((d, t)),
        )
        assert result.stats.n_evaluated == 0
        assert result.stats.cache_hits == 2
        assert list(result.outputs) == [5.0, 5.0]
        assert seen == [(2, 2)]


class TestCorrectness:
    def test_cached_equals_uncached_randomized(self):
        # Property check: for random batches with duplicates, the cached
        # engine path returns exactly the uncached outputs.
        rng = np.random.default_rng(123)
        for _ in range(20):
            values = rng.integers(0, 4, size=12)
            assignments = [{"x": float(v), "y": float(v % 2)} for v in values]
            plain = evaluate_batch(lambda p: p["x"] ** 2 - p["y"], assignments)
            cached = evaluate_batch(
                lambda p: p["x"] ** 2 - p["y"], assignments, cache=EvaluationCache()
            )
            assert np.array_equal(plain.outputs, cached.outputs)
            assert cached.stats.cache_hits + cached.stats.n_evaluated == len(assignments)

    def test_cache_with_rng_rejected(self):
        with pytest.raises(ModelDefinitionError, match="mutually exclusive"):
            evaluate_batch(
                lambda p, rng: p["x"],
                [{"x": 1.0}],
                cache=EvaluationCache(),
                rng=np.random.default_rng(0),
            )


class TestEviction:
    def test_maxsize_bounds_entries(self):
        cache = EvaluationCache(maxsize=2)
        cached = cache.wrap(lambda p: p["x"])
        for x in (1.0, 2.0, 3.0):
            cached({"x": x})
        assert len(cache) == 2
        assert {"x": 1.0} not in cache  # least recently used fell out
        assert {"x": 3.0} in cache

    def test_lru_touch_on_hit(self):
        cache = EvaluationCache(maxsize=2)
        cached = cache.wrap(lambda p: p["x"])
        cached({"x": 1.0})
        cached({"x": 2.0})
        cached({"x": 1.0})  # refresh 1 => 2 becomes LRU
        cached({"x": 3.0})
        assert {"x": 1.0} in cache
        assert {"x": 2.0} not in cache

    def test_invalid_maxsize(self):
        with pytest.raises(ModelDefinitionError):
            EvaluationCache(maxsize=0)

    def test_clear_keeps_counters(self):
        cache = EvaluationCache()
        cached = cache.wrap(lambda p: p["x"])
        cached({"x": 1.0})
        cached({"x": 1.0})
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (1, 1)
