"""The engine's front door: :func:`evaluate_batch`.

Takes an evaluator and a sequence of parameter assignments; returns the
outputs (in input order) plus an :class:`~repro.engine.stats.EngineStats`.
Optionally routes through an
:class:`~repro.engine.cache.EvaluationCache` — duplicate assignments
inside the batch are evaluated once, and assignments seen in earlier
batches are not evaluated at all — and fans the remaining work out to
the chosen :class:`~repro.engine.executors.Executor`.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ModelDefinitionError
from ..obs.trace import activate_tracer, get_tracer
from ..robust.policy import ErrorRecord, FaultPolicy
from .cache import EvaluationCache, canonical_point_key
from .executors import Executor, resolve_executor, spawn_generators
from .options import EngineOptions, resolve_options
from .stats import EngineStats

__all__ = ["BatchResult", "evaluate_batch"]

Evaluator = Callable[..., float]


class BatchResult:
    """Outputs and instrumentation of one :func:`evaluate_batch` call.

    Attributes
    ----------
    outputs:
        ``float`` array, one entry per input assignment, input order.
        Tasks that failed under a ``"skip"`` / ``"retry"`` fault policy
        hold ``NaN``.
    stats:
        The :class:`~repro.engine.stats.EngineStats` for the batch.
    errors:
        Terminal :class:`~repro.robust.ErrorRecord` per failed task
        (empty on a clean batch or under ``on_error="raise"``).
    """

    def __init__(
        self,
        outputs: np.ndarray,
        stats: EngineStats,
        errors: Optional[Sequence[ErrorRecord]] = None,
    ):
        self.outputs = np.asarray(outputs, dtype=float)
        self.stats = stats
        self.errors: List[ErrorRecord] = sorted(errors or [], key=lambda e: e.index)

    @property
    def n_failed(self) -> int:
        """Number of tasks that failed terminally."""
        return len(self.errors)

    @property
    def failed_indices(self) -> List[int]:
        """Input-order indices of the failed tasks."""
        return [error.index for error in self.errors]

    @property
    def ok(self) -> np.ndarray:
        """Boolean mask, ``True`` where the task produced a value."""
        mask = np.ones(self.outputs.size, dtype=bool)
        for error in self.errors:
            mask[error.index] = False
        return mask

    def __len__(self) -> int:
        return int(self.outputs.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        failed = f", {self.n_failed} failed" if self.errors else ""
        return f"BatchResult({self.outputs.size} outputs{failed}, {self.stats!r})"


def evaluate_batch(
    evaluate: Evaluator,
    assignments: Sequence[Mapping[str, float]],
    n_jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    executor=None,
    cache: Optional[EvaluationCache] = None,
    rng: Optional[np.random.Generator] = None,
    progress=None,
    policy: Optional[FaultPolicy] = None,
    options: Optional[EngineOptions] = None,
    tracer=None,
    compile=None,
    diagnostics: Optional[str] = None,
) -> BatchResult:
    """Evaluate every assignment; outputs in input order plus stats.

    Parameters
    ----------
    evaluate:
        ``assignment -> float``, or ``(assignment, rng) -> float`` when
        ``rng`` is given.  Must be a picklable module-level callable for
        process-based execution.
    assignments:
        Parameter assignments (mappings name -> value).
    n_jobs:
        Worker count; 1 (default) runs serially, more selects a chunked
        process pool unless ``executor`` overrides the backend.
    chunk_size:
        Tasks per dispatch unit for pool backends (default ~4 chunks
        per worker).
    executor:
        ``None``, an :class:`~repro.engine.executors.Executor`
        instance, or ``"serial"`` / ``"thread"`` / ``"process"``.
    cache:
        Optional :class:`~repro.engine.cache.EvaluationCache`.
        Duplicate assignments (within this batch or remembered from
        earlier batches) are served without re-evaluation.  Requires a
        deterministic evaluator, so it cannot be combined with ``rng``.
    rng:
        Base generator for stochastic evaluators.  One child generator
        per task is spawned deterministically (by task index), so
        results are bit-identical across executors and worker counts
        for a given seed.
    progress:
        Optional ``progress(done, total)`` callback (see
        :class:`~repro.engine.stats.ProgressPrinter`), invoked in the
        calling process; cache hits count as immediately done.
    policy:
        Optional :class:`~repro.robust.FaultPolicy` isolating task
        faults: ``"skip"`` records failures and emits ``NaN``
        placeholders, ``"retry"`` re-attempts with deterministic
        backoff first, and a broken process pool is recovered by
        serial re-dispatch.  ``None`` (default) fails fast, exactly as
        before the policy existed.  Failed evaluations are never
        written to the ``cache``, so a later batch (or a retry at
        campaign level) re-attempts them.
    options:
        An :class:`~repro.engine.EngineOptions` naming the six loose
        keywords above plus ``tracer`` in one object.  Loose keywords
        explicitly passed override the corresponding field.
    tracer:
        Optional :class:`~repro.obs.Tracer` made active for the
        duration of the call; ``None`` uses the ambient one installed
        by a surrounding :func:`repro.obs.trace` block.
    compile:
        ``None`` (default) auto-substitutes the bit-identical compiled
        form of evaluators that advertise one (``__compiles_to__``,
        e.g. the case-study ``evaluate_availability`` functions) when
        no ``rng`` is given; ``True`` forces compilation via
        :func:`repro.compile.compile_model` (raising when the
        evaluator has no compiled form); ``False`` always runs the
        evaluator as passed.
    diagnostics:
        ``"ignore"`` (default), ``"warn"`` or ``"strict"`` — one-shot
        :mod:`repro.analyze` pre-flight over the (compiled) evaluator
        with the first assignment, run once in the parent process
        before any fan-out so every executor backend behaves
        identically.  ``"strict"`` raises
        :class:`~repro.exceptions.ModelDiagnosticError` on
        error-severity findings; ``"warn"`` emits one
        :class:`~repro.exceptions.DiagnosticWarning`.  Plain Python
        evaluators are opaque and skipped.

    Examples
    --------
    >>> result = evaluate_batch(lambda p: p["x"] ** 2, [{"x": 2.0}, {"x": 3.0}])
    >>> [float(v) for v in result.outputs]
    [4.0, 9.0]
    >>> result.stats.n_evaluated
    2
    """
    opts = resolve_options(
        options,
        n_jobs=n_jobs,
        chunk_size=chunk_size,
        executor=executor,
        cache=cache,
        progress=progress,
        policy=policy,
        tracer=tracer,
        compile=compile,
        diagnostics=diagnostics,
    )
    scope = activate_tracer(opts.tracer) if opts.tracer is not None else nullcontext()
    with scope:
        return _evaluate_batch(evaluate, assignments, opts, rng)


def _maybe_compile(evaluate: Evaluator, opts: EngineOptions, rng) -> Evaluator:
    """Substitute the compiled form of ``evaluate`` when appropriate.

    ``opts.compile`` is ``None`` (auto: compile evaluators advertising
    ``__compiles_to__``, unless an ``rng`` is in play), ``True`` (force:
    :func:`repro.compile.compile_model` raises when unsupported) or
    ``False`` (never).  Substitution is bit-preserving by construction —
    compiled evaluators replicate the uncompiled arithmetic exactly —
    so cached values and cross-executor determinism are unaffected.
    """
    mode = opts.compile
    if mode is False:
        return evaluate
    from ..compile.model import CompiledEvaluator, compile_model

    if isinstance(evaluate, CompiledEvaluator):
        return evaluate
    if mode is None:
        if rng is not None or getattr(evaluate, "__compiles_to__", None) is None:
            return evaluate
    elif rng is not None:
        raise ModelDefinitionError(
            "compile=True cannot be combined with rng: compiled evaluators "
            "are deterministic and do not take a per-task generator"
        )
    compiled = compile_model(evaluate)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.metrics.counter(
            "engine.compiled_batches", evaluator=type(compiled).__name__
        ).inc()
    return compiled


def _preflight_diagnostics(
    evaluate: Evaluator,
    assignments: Sequence[Mapping[str, float]],
    mode: str,
) -> None:
    """One-shot :mod:`repro.analyze` pre-flight for the batch.

    Runs once in the parent process, before any executor fan-out, so the
    serial, thread and process backends behave identically.  Only
    structure-frozen evaluators — compiled evaluators and
    :class:`~repro.sparse.SparseCTMC` instances — expose analyzable
    structure; a plain Python callable is opaque and is skipped (after
    the mode string is validated).  The first assignment stands in for
    the sweep: frozen evaluators share one structure across all points,
    so the structural findings are batch-wide.
    """
    from ..analyze import DIAGNOSTIC_MODES, run_diagnostics

    if mode not in DIAGNOSTIC_MODES:
        raise ModelDefinitionError(
            f"diagnostics must be one of {DIAGNOSTIC_MODES}, got {mode!r}"
        )
    from ..compile.model import CompiledEvaluator
    from ..sparse.ctmc import SparseCTMC

    if not isinstance(evaluate, (CompiledEvaluator, SparseCTMC)):
        return
    params = dict(assignments[0]) if assignments else None
    run_diagnostics(evaluate, mode, params=params, where="evaluate_batch")


def _evaluate_batch(
    evaluate: Evaluator,
    assignments: Sequence[Mapping[str, float]],
    opts: EngineOptions,
    rng: Optional[np.random.Generator],
) -> BatchResult:
    assignments = list(assignments)
    n = len(assignments)
    chunk_size, cache, progress, policy = (
        opts.chunk_size,
        opts.cache,
        opts.progress,
        opts.policy,
    )
    if cache is not None and rng is not None:
        raise ModelDefinitionError(
            "cache and rng are mutually exclusive: memoization assumes a "
            "deterministic evaluator, per-task RNG spawning assumes a "
            "stochastic one"
        )
    evaluate = _maybe_compile(evaluate, opts, rng)
    if opts.diagnostics != "ignore":
        _preflight_diagnostics(evaluate, assignments, opts.diagnostics)
    ex = resolve_executor(opts.n_jobs, opts.executor)
    active = get_tracer()
    batch_span = (
        active.span("engine.batch", executor=ex.name, n_jobs=ex.n_jobs, n_tasks=n)
        if active.enabled
        else nullcontext()
    )
    with batch_span as span:
        result = _evaluate_resolved(
            evaluate, assignments, n, ex, chunk_size, cache, progress, policy, rng
        )
    if active.enabled:
        span.observe(result.stats, key="stats")
        metrics = active.metrics
        metrics.counter("engine.tasks").inc(n)
        metrics.counter("engine.evaluated").inc(result.stats.n_evaluated)
        if result.stats.cache_hits or result.stats.cache_misses:
            metrics.counter("engine.cache.hits").inc(result.stats.cache_hits)
            metrics.counter("engine.cache.misses").inc(result.stats.cache_misses)
        if result.stats.n_failed:
            metrics.counter("engine.failed").inc(result.stats.n_failed)
        if result.stats.n_retries:
            metrics.counter("engine.retries").inc(result.stats.n_retries)
        metrics.histogram("engine.eval_seconds").observe_many(result.stats.durations)
    return result


def _evaluate_resolved(
    evaluate: Evaluator,
    assignments: List[Mapping[str, float]],
    n: int,
    ex: Executor,
    chunk_size: Optional[int],
    cache: Optional[EvaluationCache],
    progress,
    policy: Optional[FaultPolicy],
    rng: Optional[np.random.Generator],
) -> BatchResult:
    start = perf_counter()

    if cache is None:
        rngs = spawn_generators(rng, n) if rng is not None else None
        values, durations, report = ex.run(
            evaluate,
            assignments,
            rngs=rngs,
            chunk_size=chunk_size,
            progress=progress,
            policy=policy,
        )
        stats = EngineStats(
            ex.name,
            ex.n_jobs,
            n,
            durations,
            perf_counter() - start,
            n_failed=report.n_failed,
            n_retries=report.n_retries,
            pool_recoveries=report.pool_recoveries,
        )
        return BatchResult(np.asarray(values, dtype=float), stats, report.errors)

    # Cache-aware path: resolve hits, dedupe within the batch, evaluate
    # only the unique misses, then fan values back out by index.
    outputs = np.empty(n)
    pending: Dict[Tuple, List[int]] = {}
    to_evaluate: List[Tuple[Tuple, Mapping[str, float]]] = []
    hits = 0
    for i, assignment in enumerate(assignments):
        key = canonical_point_key(assignment)
        found, value = cache.peek(key)
        if found:
            outputs[i] = value
            hits += 1
        elif key in pending:
            pending[key].append(i)
            hits += 1  # within-batch duplicate: served by the first evaluation
        else:
            pending[key] = [i]
            to_evaluate.append((key, assignment))
    misses = len(to_evaluate)
    cache.count_hits(hits)
    cache.count_misses(misses)

    if progress is not None and hits and not misses:
        progress(n, n)
    shifted = None
    if progress is not None and misses:
        if hits:
            progress(hits, n)

        def shifted(done, total, _hits=hits, _n=n):
            progress(_hits + done, _n)

    values, durations, report = ex.run(
        evaluate,
        [assignment for _, assignment in to_evaluate],
        chunk_size=chunk_size,
        progress=shifted,
        policy=policy,
    )
    # Failed evaluations fan their NaN out to every duplicate index but
    # are not memoized — a later batch through the same cache retries.
    failed_local = {error.index: error for error in report.errors}
    errors: List[ErrorRecord] = []
    for j, ((key, _), value) in enumerate(zip(to_evaluate, values)):
        error = failed_local.get(j)
        if error is None:
            cache.put(key, value)
        for i in pending[key]:
            outputs[i] = value
            if error is not None:
                errors.append(error.with_index(i))
    stats = EngineStats(
        ex.name,
        ex.n_jobs,
        n,
        durations,
        perf_counter() - start,
        cache_hits=hits,
        cache_misses=misses,
        n_failed=len(errors),
        n_retries=report.n_retries,
        pool_recoveries=report.pool_recoveries,
    )
    return BatchResult(outputs, stats, errors)
