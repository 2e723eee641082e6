"""Memoization of model evaluations.

The batch workloads this library generates — tornado swings, central
differences, fixed-point sweeps, repeated what-if analyses — re-evaluate
the same parameter assignment over and over (every tornado row anchors
the non-swung parameters at their medians; every central difference
shares the nominal point).  Re-solving a CTMC hierarchy for a point
already solved is pure waste, so :class:`EvaluationCache` memoizes
evaluator calls keyed on the *frozen* parameter assignment and counts
its own traffic so the payoff is measurable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Mapping, Optional, Tuple

from ..exceptions import ModelDefinitionError

__all__ = ["EvaluationCache", "canonical_point_key"]

Key = Tuple[Tuple[str, float], ...]


def canonical_point_key(assignment: Mapping[str, float]) -> Key:
    """Canonical hashable key for a parameter point.

    Name-sorted tuple of ``(name, float(value))`` pairs — insertion
    order of the mapping does not matter, so ``{"a": 1, "b": 2}`` and
    ``{"b": 2, "a": 1}`` share a cache entry.  Values are normalized
    through ``float()`` (ints, bools and numpy scalars collapse onto
    the equal float) and ``-0.0`` is canonicalized to ``0.0``, so every
    representation of the same mathematical point maps to the same key.

    This is the *single* key function for memoized parameter points:
    :class:`EvaluationCache` uses it, and so does the :class:`repro.serve.ResultCache` — one
    definition, so the two can never drift.

    Examples
    --------
    >>> canonical_point_key({"b": 2, "a": 1}) == canonical_point_key({"a": 1.0, "b": 2.0})
    True
    >>> canonical_point_key({"x": -0.0}) == canonical_point_key({"x": 0.0})
    True
    """
    return tuple(sorted((str(k), float(v) + 0.0) for k, v in assignment.items()))


class EvaluationCache:
    """LRU-bounded memo table for ``assignment -> output`` evaluations.

    Parameters
    ----------
    maxsize:
        Optional entry bound; when exceeded the least-recently-used
        entry is evicted.  ``None`` (default) means unbounded.

    Attributes
    ----------
    hits / misses:
        Cumulative lookup counters across the cache's lifetime (a
        *hit* includes batch-internal deduplication — an assignment
        requested again before its first evaluation finished).

    Examples
    --------
    >>> cache = EvaluationCache()
    >>> evaluate = cache.wrap(lambda p: p["x"] ** 2)
    >>> evaluate({"x": 3.0}), evaluate({"x": 3.0})
    (9.0, 9.0)
    >>> cache.hits, cache.misses
    (1, 1)
    """

    def __init__(self, maxsize: Optional[int] = None):
        if maxsize is not None and maxsize < 1:
            raise ModelDefinitionError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Key, float]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, assignment: Mapping[str, float]) -> bool:
        return canonical_point_key(assignment) in self._data

    @property
    def hit_rate(self) -> float:
        """Lifetime hit fraction (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def peek(self, key: Key) -> Tuple[bool, float]:
        """(found, value) for a frozen key — does **not** touch counters.

        Used by the batch engine, which does its own hit/miss accounting
        (it also counts within-batch deduplication) and reports the
        totals back through :meth:`count_hits` / :meth:`count_misses`.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                return False, float("nan")
            self._data.move_to_end(key)
            return True, value

    def put(self, key: Key, value: float) -> None:
        """Store a frozen-key entry, evicting LRU past ``maxsize``."""
        with self._lock:
            self._data[key] = float(value)
            self._data.move_to_end(key)
            if self.maxsize is not None:
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)

    def count_hits(self, n: int) -> None:
        """Credit ``n`` hits to the lifetime counters (engine bookkeeping)."""
        with self._lock:
            self.hits += int(n)

    def count_misses(self, n: int) -> None:
        """Credit ``n`` misses to the lifetime counters (engine bookkeeping)."""
        with self._lock:
            self.misses += int(n)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._data.clear()

    def wrap(self, evaluate: Callable[[Mapping[str, float]], float]) -> Callable[[Mapping[str, float]], float]:
        """A drop-in memoized version of ``evaluate``.

        Thread-safe; the underlying evaluator runs outside the lock so
        concurrent misses on *different* assignments do not serialize.
        """

        def cached_evaluate(assignment: Mapping[str, float]) -> float:
            key = canonical_point_key(assignment)
            found, value = self.peek(key)
            if found:
                self.count_hits(1)
                return value
            self.count_misses(1)
            value = float(evaluate(assignment))
            self.put(key, value)
            return value

        return cached_evaluate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = self.maxsize if self.maxsize is not None else "inf"
        return (
            f"EvaluationCache({len(self._data)} entries, bound {bound}, "
            f"{self.hits} hits / {self.misses} misses)"
        )
