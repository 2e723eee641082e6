"""The persistent tier under :class:`~repro.engine.EvaluationCache`.

:class:`StoreBackedCache` is a drop-in ``EvaluationCache`` whose misses
fall through to a :class:`~repro.store.CampaignStore`: a memory LRU sits
in front (so a warm rerun costs the same as the pure in-memory cache),
sqlite sits behind (so the memo survives the process).  The engine's
batch path already guarantees that only clean values reach
:meth:`put`, and the sqlite tier only ever *serves* ``ok`` rows — a
stored failure is treated as a miss, so failures are never replayed as
successes, mirroring the in-memory cache's failures-never-cached rule.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, Union

from ..engine.cache import EvaluationCache, Key
from .naming import model_name_for
from .store import CampaignStore

__all__ = ["StoreBackedCache"]


class StoreBackedCache(EvaluationCache):
    """Two-tier memo: memory LRU in front, durable sqlite behind.

    Parameters
    ----------
    store:
        The durable tier (an open :class:`~repro.store.CampaignStore`).
    model:
        Durable model name the rows are stored under — a string, or an
        evaluator callable to derive the name from (via
        :func:`~repro.store.model_name_for`).
    seed:
        Store seed column value (``""`` for deterministic evaluators).
    maxsize:
        Memory-tier LRU bound, as :class:`~repro.engine.EvaluationCache`.
    write_through:
        When ``True`` (default) every fresh value is persisted; ``False``
        makes the store read-only (warm-start from history without
        growing it).

    Attributes
    ----------
    store_hits / store_misses:
        Traffic that fell through the memory tier: sqlite rows served
        vs. true misses that reached the evaluator.

    Examples
    --------
    >>> store = CampaignStore(":memory:")
    >>> cache = StoreBackedCache(store, model="m")
    >>> evaluate = cache.wrap(lambda p: p["x"] * 2)
    >>> evaluate({"x": 2.0})
    4.0
    >>> cache.clear()                     # drop the memory tier only
    >>> evaluate({"x": 2.0})              # served durably, not re-evaluated
    4.0
    >>> cache.store_hits, cache.store_misses
    (1, 1)
    >>> store.close()
    """

    def __init__(
        self,
        store: CampaignStore,
        model: Union[str, object],
        seed: str = "",
        maxsize: Optional[int] = None,
        write_through: bool = True,
    ):
        super().__init__(maxsize=maxsize)
        self.store = store
        self.model = model if isinstance(model, str) else model_name_for(model)
        self.seed = str(seed)
        self.write_through = bool(write_through)
        self.store_hits = 0
        self.store_misses = 0

    def peek(self, key: Key) -> Tuple[bool, float]:
        """Memory tier first; on miss, consult sqlite and promote.

        Only ``ok`` rows are served — a stored failure reads as a miss
        so the engine re-evaluates it (and, on success,
        :meth:`put` overwrites the error row durably).

        The memory-hit branch mirrors the parent's lookup inline rather
        than delegating: a warm rerun peeks once per point, and the
        extra call frame alone is measurable against a dict hit (the
        E36 warm-overhead gate holds this path to <= 5% of the pure
        in-memory cache).
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                pass
            else:
                self._data.move_to_end(key)
                return True, value
        stored = self.store.lookup(self.model, key, seed=self.seed)
        if stored is not None and stored.ok:
            self.store_hits += 1
            self._count("store.cache.hits")
            super().put(key, stored.value)  # promote into the memory tier
            return True, stored.value
        self.store_misses += 1
        self._count("store.cache.misses")
        return False, float("nan")

    def put(self, key: Key, value: float) -> None:
        """Store in both tiers (sqlite write skipped when read-only)."""
        super().put(key, value)
        if self.write_through:
            self.store.record_success(self.model, key, value, seed=self.seed)

    def warm(self, limit: Optional[int] = None) -> int:
        """Preload the memory tier from every stored success of the model.

        Returns the number of rows promoted.  With a bounded memory tier
        the usual LRU eviction applies; ``limit`` caps the promotion
        independently.
        """
        rows = self.store.export_json(self.model)
        n = 0
        for row in rows:
            if row["status"] != "ok":
                continue
            if limit is not None and n >= limit:
                break
            point = row["point"]
            assert isinstance(point, dict)
            super().put(
                tuple(sorted((str(k), float(v) + 0.0) for k, v in point.items())),
                float(row["value"]),  # type: ignore[arg-type]
            )
            n += 1
        return n

    def __contains__(self, assignment: Mapping[str, float]) -> bool:
        from ..engine.cache import canonical_point_key

        found, _ = self.peek(canonical_point_key(assignment))
        return found

    @staticmethod
    def _count(name: str) -> None:
        from ..obs.trace import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter(name).inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreBackedCache({self.model!r}, {len(self)} in memory, "
            f"{self.store_hits} store hits / {self.store_misses} store misses)"
        )
