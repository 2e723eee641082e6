"""Request micro-batching: coalesce concurrent point queries.

Every availability query is one ``assignment -> float`` evaluation, but
the engine's fixed per-call overhead (tracer setup, stats, dispatch) and
the compiled evaluators' vectorized ``evaluate_many`` both reward larger
batches.  A :class:`MicroBatcher` therefore queues incoming points and a
single flush thread drains the queue in bursts: a burst closes when
either ``max_batch`` points are waiting or ``flush_window`` seconds have
passed since the burst opened — the classic latency/throughput knob.

Within one flush, points are grouped by model and **deduplicated** on
:func:`~repro.engine.canonical_point_key`, so a hot point asked by N
concurrent clients is evaluated once and fanned back out to all N
futures.  Each model group is evaluated through one
:func:`~repro.engine.evaluate_batch` call under ``FaultPolicy("skip")``:
a poisoned point fails *its* future with :class:`EvaluationFailed`
(carrying the structured :class:`~repro.robust.ErrorRecord`) and never
takes the rest of the burst down.

Determinism: with the default serial executor the batched path runs the
exact same evaluator calls as a direct :func:`~repro.engine.evaluate_batch`,
so served values are bit-identical to offline sweeps.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Tuple

from ..engine.batch import evaluate_batch
from ..engine.cache import canonical_point_key
from ..obs.trace import Tracer
from ..robust.policy import ErrorRecord, FaultPolicy
from .registry import ModelRegistry

__all__ = ["EvaluationFailed", "MicroBatcher"]


class EvaluationFailed(Exception):
    """One point's evaluation failed; carries the engine's record."""

    def __init__(self, record: ErrorRecord):
        super().__init__(str(record))
        self.record = record


class _Pending:
    """One queued point: destination model, assignment, result future."""

    __slots__ = ("model", "assignment", "key", "future")

    def __init__(self, model: str, assignment: Mapping[str, float]):
        self.model = model
        self.assignment = dict(assignment)
        self.key = canonical_point_key(assignment)
        self.future: "Future[float]" = Future()


class MicroBatcher:
    """Queue + flush thread coalescing point queries into engine batches.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.ModelRegistry` whose evaluators run.
    max_batch:
        Flush as soon as this many points are waiting.
    flush_window:
        Maximum seconds a burst stays open waiting for company; the
        latency cost of batching is bounded by this number.
    executor / n_jobs:
        Forwarded to :func:`~repro.engine.evaluate_batch` per flush.
        The default (serial) keeps served values bit-identical to
        direct evaluation.  A named pool backend is the process's one
        warm executor for it, so flushes reuse its workers rather than
        forking a pool each.
    metrics:
        A metrics registry (ideally a
        :class:`~repro.obs.ThreadSafeMetricsRegistry`) receiving the
        ``serve.batch.*`` instruments and the engine's own counters.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 64,
        flush_window: float = 0.002,
        executor=None,
        n_jobs: Optional[int] = None,
        metrics=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if flush_window < 0:
            raise ValueError(f"flush_window must be >= 0, got {flush_window}")
        self.registry = registry
        self.max_batch = int(max_batch)
        self.flush_window = float(flush_window)
        self.executor = executor
        self.n_jobs = n_jobs
        # Private tracer: Tracer is single-thread by design and only the
        # flush thread records into this one; the *metrics* registry is
        # the shared (thread-safe) sink the /metrics endpoint exports.
        self._tracer = Tracer("serve.batcher", metrics=metrics)
        self._cond = threading.Condition()
        self._pending: List[_Pending] = []
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------- submit
    def submit(self, model: str, assignment: Mapping[str, float]) -> "Future[float]":
        """Queue one point; the returned future resolves to its value.

        Raises ``RuntimeError`` after :meth:`close`; the future fails
        with :class:`EvaluationFailed` when the evaluation does.
        """
        self.registry.get(model)  # unknown names fail fast, in the caller
        item = _Pending(model, assignment)
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._pending.append(item)
            self._cond.notify_all()
        return item.future

    def submit_many(
        self, model: str, assignments: List[Mapping[str, float]]
    ) -> List["Future[float]"]:
        """Queue a client batch atomically (one lock round-trip)."""
        self.registry.get(model)
        items = [_Pending(model, a) for a in assignments]
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._pending.extend(items)
            self._cond.notify_all()
        return [item.future for item in items]

    # -------------------------------------------------------- flush thread
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return  # closed and drained
                # A burst is open: hold it for the flush window unless
                # the size cap fills it (or shutdown drains it) first.
                deadline = perf_counter() + self.flush_window
                while len(self._pending) < self.max_batch and not self._closed:
                    remaining = deadline - perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                burst, self._pending = self._pending, []
            self._flush(burst)

    def _flush(self, burst: List[_Pending]) -> None:
        metrics = self._tracer.metrics
        metrics.counter("serve.batch.flushes").inc()
        metrics.histogram("serve.batch.size").observe(len(burst))
        by_model: Dict[str, List[_Pending]] = {}
        for item in burst:
            by_model.setdefault(item.model, []).append(item)
        for model, items in by_model.items():
            self._flush_model(model, items)
        # The tracer is per-flush scratch: metrics persist in the shared
        # registry, but keeping every span tree would grow without bound
        # in a long-running daemon.
        self._tracer.root.children.clear()

    def _flush_model(self, model: str, items: List[_Pending]) -> None:
        metrics = self._tracer.metrics
        # Dedupe: a hot point asked N times in one burst runs once.
        unique: Dict[Tuple, List[_Pending]] = {}
        for item in items:
            unique.setdefault(item.key, []).append(item)
        n_deduped = len(items) - len(unique)
        if n_deduped:
            metrics.counter("serve.batch.deduplicated", model=model).inc(n_deduped)
        points = [group[0].assignment for group in unique.values()]
        try:
            entry = self.registry.get(model)
            result = evaluate_batch(
                entry.evaluate,
                points,
                executor=self.executor,
                n_jobs=self.n_jobs,
                policy=FaultPolicy("skip"),
                tracer=self._tracer,
            )
        except Exception as exc:
            # Batch-level failure (not a per-point one): every waiter in
            # the group gets the same structured ErrorRecord.
            record = ErrorRecord(index=0, error_type=type(exc).__name__, message=str(exc))
            for group in unique.values():
                for item in group:
                    item.future.set_exception(EvaluationFailed(record))
            return
        errors = {error.index: error for error in result.errors}
        for i, group in enumerate(unique.values()):
            if i in errors:
                failure = EvaluationFailed(errors[i])
                for item in group:
                    item.future.set_exception(failure)
            else:
                value = float(result.outputs[i])
                for item in group:
                    item.future.set_result(value)

    # -------------------------------------------------------------- close
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the flush thread; idempotent.

        With ``drain=True`` (the graceful-shutdown path) everything
        queued at close time is still evaluated and its futures resolve
        normally; with ``drain=False`` queued futures fail immediately
        with :class:`EvaluationFailed`.
        """
        with self._cond:
            if self._closed:
                self._cond.notify_all()
            else:
                self._closed = True
                if not drain:
                    abandoned = ErrorRecord(
                        index=0,
                        error_type="ServerClosed",
                        message="server shut down before this point was evaluated",
                    )
                    for item in self._pending:
                        item.future.set_exception(EvaluationFailed(abandoned))
                    self._pending = []
                self._cond.notify_all()
        self._thread.join(timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"MicroBatcher(max_batch={self.max_batch}, "
            f"flush_window={self.flush_window}, {state})"
        )
