"""Result-cache semantics and the canonical-key bit-identity contract."""

import math

import numpy as np
import pytest

from repro.engine import EvaluationCache, canonical_point_key, evaluate_batch
from repro.serve import ResultCache


class TestCanonicalPointKey:
    def test_order_insensitive(self):
        assert canonical_point_key({"b": 2.0, "a": 1.0}) == canonical_point_key(
            {"a": 1.0, "b": 2.0}
        )

    def test_numeric_normalization(self):
        assert canonical_point_key({"x": 1}) == canonical_point_key({"x": 1.0})
        assert canonical_point_key({"x": np.float64(1.0)}) == canonical_point_key(
            {"x": 1.0}
        )
        assert canonical_point_key({"x": -0.0}) == canonical_point_key({"x": 0.0})

    def test_bit_identity_with_engine_cache_entries(self):
        # A point cached by the batch engine is found by the serve-side
        # key (and vice versa) — same key function, same cache class.
        cache = EvaluationCache()
        evaluate_batch(lambda p: p["x"] ** 2, [{"x": 3.0}], cache=cache)
        found, value = cache.peek(canonical_point_key({"x": 3}))
        assert found and value == 9.0

    def test_distinct_points_distinct_keys(self):
        assert canonical_point_key({"x": 1.0}) != canonical_point_key({"x": 2.0})
        assert canonical_point_key({"x": 1.0}) != canonical_point_key({"y": 1.0})


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(maxsize=4)
        found, _ = cache.get("m", {"x": 1.0})
        assert not found
        cache.put("m", {"x": 1.0}, 0.25)
        found, value = cache.get("m", {"x": 1})  # int 1 == float 1.0
        assert found and value == 0.25

    def test_models_are_isolated(self):
        cache = ResultCache()
        cache.put("a", {"x": 1.0}, 0.5)
        found, _ = cache.get("b", {"x": 1.0})
        assert not found

    def test_lru_eviction_per_model(self):
        cache = ResultCache(maxsize=2)
        cache.put("m", {"x": 1.0}, 1.0)
        cache.put("m", {"x": 2.0}, 2.0)
        cache.get("m", {"x": 1.0})  # touch 1 -> 2 becomes LRU
        cache.put("m", {"x": 3.0}, 3.0)
        assert cache.get("m", {"x": 1.0})[0]
        assert not cache.get("m", {"x": 2.0})[0]
        assert cache.get("m", {"x": 3.0})[0]

    def test_stats_aggregate_and_break_down(self):
        cache = ResultCache()
        cache.get("a", {"x": 1.0})
        cache.put("a", {"x": 1.0}, 0.5)
        cache.get("a", {"x": 1.0})
        cache.get("b", {"y": 2.0})
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["entries"] == 1
        assert stats["models"]["a"]["hits"] == 1
        assert stats["models"]["b"]["misses"] == 1

    def test_maxsize_zero_disables(self):
        cache = ResultCache(maxsize=0)
        assert not cache.enabled
        cache.put("m", {"x": 1.0}, 0.5)
        found, value = cache.get("m", {"x": 1.0})
        assert not found and math.isnan(value)
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0

    def test_clear_keeps_counters(self):
        cache = ResultCache()
        cache.put("m", {"x": 1.0}, 0.5)
        cache.get("m", {"x": 1.0})
        cache.clear()
        assert not cache.get("m", {"x": 1.0})[0]
        assert cache.stats()["hits"] == 1

    def test_negative_maxsize_rejected(self):
        from repro.exceptions import ModelDefinitionError

        with pytest.raises(ModelDefinitionError, match=">= 0"):
            ResultCache(maxsize=-1)
