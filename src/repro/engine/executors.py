"""Execution backends for batch model evaluation.

One abstraction — :class:`Executor` — with three implementations:

* :class:`SerialExecutor` — plain loop, zero overhead, the reference;
* :class:`ThreadExecutor` — a thread pool, right when the evaluator
  releases the GIL (sparse linear algebra, native solvers) or does I/O;
* :class:`ProcessExecutor` — a *chunked* process pool, right for the
  pure-Python hot paths (BDD traversal, reachability, trajectory
  replay) where the GIL would serialize threads.

All three place results by submission index and spawn per-task random
generators deterministically from the caller's seed, so a batch is
**bit-identical across executors** for a given seed — swapping
``n_jobs=1`` for ``n_jobs=8`` is a pure performance decision, never a
numerical one.

Every backend accepts a :class:`~repro.robust.FaultPolicy` and then
isolates task faults instead of failing fast: exceptions become
``NaN`` placeholders plus :class:`~repro.robust.ErrorRecord` entries,
transient faults are retried with deterministic jittered backoff, slow
tasks are flagged against a soft wall-clock budget, and a process pool
that a dying worker takes down is recovered by re-dispatching the
unfinished chunks serially.  ``policy=None`` keeps the historical
fail-fast behaviour bit for bit.

An executor is also a context manager: inside ``with executor:`` the
pool backends keep one worker pool alive across ``run`` calls, so a
chunked campaign forks its workers (and ships a ``__ship_once__``
evaluator into them) once instead of once per chunk.  Outside a
``with`` each ``run`` holds its pool for that one batch.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import os
import pickle
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import EvaluationTimeout, ModelDefinitionError, SolverError
from ..obs.trace import get_tracer, record_span
from ..robust.policy import ErrorRecord, FaultPolicy, FaultReport

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "spawn_generators",
    "parallel_starmap",
]

Evaluator = Callable[..., float]
Progress = Callable[[int, int], None]


def spawn_generators(rng: np.random.Generator, n: int) -> List[np.random.Generator]:
    """``n`` independent child generators, deterministically derived.

    Uses ``Generator.spawn`` (NumPy >= 1.25) with a ``SeedSequence``
    fallback; for a generator seeded with a fixed value the children are
    reproducible, and child ``k`` is the same no matter how many workers
    eventually consume it — the basis of the engine's cross-executor
    determinism for stochastic evaluators.
    """
    if n < 0:
        raise ModelDefinitionError(f"cannot spawn {n} generators")
    if n == 0:
        return []
    try:
        return list(rng.spawn(n))
    except AttributeError:  # pragma: no cover - NumPy < 1.25 fallback
        children = rng.bit_generator.seed_seq.spawn(n)
        return [np.random.default_rng(child) for child in children]


def ensure_picklable(obj: Any, role: str) -> None:
    """Raise a clear :class:`ModelDefinitionError` when ``obj`` cannot cross
    a process boundary (lambdas, closures, locally defined functions)."""
    try:
        pickle.dumps(obj)
    except Exception as exc:
        raise ModelDefinitionError(
            f"{role} is not picklable ({type(exc).__name__}: {exc}); "
            f"process-based parallelism (n_jobs > 1) requires a module-level "
            f"function and picklable arguments — use a named top-level "
            f"function instead of a lambda/closure, or fall back to "
            f"n_jobs=1 or the thread executor"
        ) from exc


#: worker-side registry of evaluators installed by the pool initializer
_SHIPPED_EVALUATORS: Dict[str, Any] = {}

_ship_counter = itertools.count()


#: seconds between a pool worker's checks that its parent is still alive
_ORPHAN_POLL = 0.25


def _exit_when_orphaned() -> None:
    """Worker watchdog: exit as soon as the parent process is gone.

    A ``ProcessPoolExecutor`` worker whose parent is SIGKILLed stays
    blocked on its call queue forever; re-parenting changes
    ``os.getppid()``, which is the signal to leave.
    """
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL)
    os._exit(1)


def _init_worker(shipped: Optional[Tuple[str, bytes]] = None) -> None:
    """Initializer of every process pool the library builds.

    Starts the orphan watchdog, then unpickles a ship-once evaluator
    into the worker's registry: a compiled evaluator (which may carry
    sizeable frozen structure) crosses the process boundary once per
    worker instead of once per submitted chunk.
    """
    threading.Thread(target=_exit_when_orphaned, name="repro-orphan-watch", daemon=True).start()
    if shipped is not None:
        key, payload = shipped
        _SHIPPED_EVALUATORS[key] = pickle.loads(payload)


def _process_pool(
    n_jobs: int, shipped: Optional[Tuple[str, bytes]] = None
) -> concurrent.futures.ProcessPoolExecutor:
    """The one constructor of process pools in the library."""
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=n_jobs, initializer=_init_worker, initargs=(shipped,)
    )


class _ShippedEvaluator:
    """Lightweight stand-in submitted in place of a ship-once evaluator.

    Pickles to just its registry key; in a worker it resolves to the
    instance the pool initializer installed, in the parent (serial
    re-dispatch after a broken pool) it still holds the original.
    """

    def __init__(self, key: str, evaluate: Evaluator):
        self._key = key
        self._evaluate: Optional[Evaluator] = evaluate

    def __getstate__(self) -> Dict[str, Any]:
        return {"_key": self._key, "_evaluate": None}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    def _resolve(self) -> Evaluator:
        if self._evaluate is None:
            try:
                self._evaluate = _SHIPPED_EVALUATORS[self._key]
            except KeyError:  # pragma: no cover - initializer never ran
                raise SolverError(
                    f"shipped evaluator {self._key!r} missing from the worker; "
                    "the pool initializer did not run"
                ) from None
        return self._evaluate

    def __call__(self, assignment, rng=None):
        evaluate = self._resolve()
        return evaluate(assignment) if rng is None else evaluate(assignment, rng)


def default_chunk_size(n_tasks: int, n_jobs: int) -> int:
    """Heuristic chunk size: ~4 chunks per worker, at least 1 task each.

    Large enough to amortize inter-process dispatch, small enough to
    keep workers load-balanced when evaluation times vary.
    """
    if n_tasks <= 0:
        return 1
    return max(1, math.ceil(n_tasks / (4 * max(1, n_jobs))))


def _chunk_indices(n_tasks: int, chunk_size: int) -> List[range]:
    return [range(lo, min(lo + chunk_size, n_tasks)) for lo in range(0, n_tasks, chunk_size)]


def _run_task(
    evaluate: Evaluator,
    assignment: Mapping[str, float],
    rng: Optional[np.random.Generator],
    policy: Optional[FaultPolicy],
    index: int,
) -> Tuple[float, float, Optional[ErrorRecord], int]:
    """One evaluation under the fault policy.

    Returns ``(value, seconds, error, attempts)``: *error* is ``None``
    on success and the terminal :class:`ErrorRecord` otherwise (value is
    then ``NaN``).  ``policy=None`` — and ``on_error="raise"`` — let the
    first exception propagate unchanged, preserving fail-fast semantics.
    """
    attempts = 0
    while True:
        attempts += 1
        start = time.perf_counter()
        try:
            if rng is None:
                value = float(evaluate(assignment))
            else:
                value = float(evaluate(assignment, rng))
            elapsed = time.perf_counter() - start
            if policy is not None:
                if policy.timeout is not None and elapsed > policy.timeout:
                    raise EvaluationTimeout(
                        f"evaluation took {elapsed:.3g}s, budget {policy.timeout:.3g}s"
                    )
                if policy.treat_nan_as_failure and not math.isfinite(value):
                    raise SolverError(f"evaluator returned non-finite value {value!r}")
            return value, elapsed, None, attempts
        except Exception as exc:
            elapsed = time.perf_counter() - start
            if policy is None or policy.on_error == "raise":
                raise
            if policy.should_retry(attempts):
                delay = policy.retry_delay(index, attempts)
                if delay > 0.0:
                    time.sleep(delay)
                continue
            record = ErrorRecord(
                index=int(index),
                error_type=type(exc).__name__,
                message=str(exc),
                attempts=attempts,
                duration=elapsed,
            )
            return float("nan"), elapsed, record, attempts


def _run_chunk(
    evaluate: Evaluator,
    assignments: Sequence[Mapping[str, float]],
    rngs: Optional[Sequence[np.random.Generator]],
    policy: Optional[FaultPolicy] = None,
    indices: Optional[Sequence[int]] = None,
) -> List[Tuple[float, float, Optional[ErrorRecord], int]]:
    """Evaluate one chunk; ``(value, seconds, error, attempts)`` per task.

    Module-level so it pickles for the process pool; also the shared
    inner loop of the serial and thread backends.  ``indices`` carries
    the batch-global task indices so error records and backoff jitter
    stay addressed in input order regardless of chunking.
    """
    results: List[Tuple[float, float, Optional[ErrorRecord], int]] = []
    for k, assignment in enumerate(assignments):
        results.append(
            _run_task(
                evaluate,
                assignment,
                None if rngs is None else rngs[k],
                policy,
                k if indices is None else indices[k],
            )
        )
    return results


def _run_chunk_traced(
    evaluate: Evaluator,
    assignments: Sequence[Mapping[str, float]],
    rngs: Optional[Sequence[np.random.Generator]],
    policy: Optional[FaultPolicy],
    indices: Optional[Sequence[int]],
    span_attributes: Mapping[str, Any],
):
    """:func:`_run_chunk` wrapped in the engine's trace envelope.

    Runs the chunk under a worker-local recorder tracer and returns
    ``(chunk_results, span_dict)``; any instrumented library code the
    evaluator calls (solver stages, BDD builds) nests under the chunk
    span and travels back with it.  Module-level so it pickles for the
    process pool.
    """
    return record_span(
        _run_chunk,
        (evaluate, assignments, rngs, policy, indices),
        name="engine.chunk",
        attributes=span_attributes,
    )


class Executor:
    """Runs a batch of independent evaluations; results in input order.

    Subclasses implement :meth:`run`; construction is cheap.  The
    underlying pool (if any) lives for one batch, or, inside ``with
    executor:``, until the outermost ``with`` exits, so a campaign that
    calls :meth:`run` once per chunk forks its workers once.  Holding
    is reference-counted (nested ``with`` blocks and concurrent runs
    share the pool), and an instance can be reused across batches
    safely either way.
    """

    name = "abstract"
    n_jobs = 1

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def run(
        self,
        evaluate: Evaluator,
        assignments: Sequence[Mapping[str, float]],
        rngs: Optional[Sequence[np.random.Generator]] = None,
        chunk_size: Optional[int] = None,
        progress: Optional[Progress] = None,
        policy: Optional[FaultPolicy] = None,
    ) -> Tuple[List[float], np.ndarray, FaultReport]:
        """``(values, durations, report)`` for the batch, in input order.

        Parameters
        ----------
        evaluate:
            ``assignment -> float`` (or ``(assignment, rng) -> float``
            when ``rngs`` is given).
        assignments:
            The parameter assignments to evaluate.
        rngs:
            Optional per-task generators (same length as
            ``assignments``), for stochastic evaluators.
        chunk_size:
            Tasks per dispatch unit for pool executors; ``None`` uses
            :func:`default_chunk_size`.
        progress:
            Optional ``progress(done, total)`` callback, invoked from
            the calling process as tasks complete.
        policy:
            Optional :class:`~repro.robust.FaultPolicy`.  ``None`` (and
            ``on_error="raise"``) fails fast: the first evaluation error
            cancels the chunks not yet dispatched, waits for in-flight
            chunks, and re-raises the original exception.  ``"skip"`` /
            ``"retry"`` isolate the fault: the failed task yields ``NaN``
            and an :class:`~repro.robust.ErrorRecord` in the report, and
            every other task still completes.

        Returns
        -------
        ``values`` (``NaN`` at failed positions), per-task ``durations``
        (seconds), and the batch :class:`~repro.robust.FaultReport`
        (empty on a clean run).
        """
        raise NotImplementedError

    def _validate(self, assignments, rngs) -> int:
        n = len(assignments)
        if rngs is not None and len(rngs) != n:
            raise ModelDefinitionError(
                f"rngs length {len(rngs)} does not match {n} assignments"
            )
        return n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_jobs={self.n_jobs})"


class SerialExecutor(Executor):
    """In-process loop — the reference implementation and the default."""

    name = "serial"
    n_jobs = 1

    def run(self, evaluate, assignments, rngs=None, chunk_size=None, progress=None, policy=None):
        n = self._validate(assignments, rngs)
        tracer = get_tracer()
        if tracer.enabled and n:
            return self._run_traced(
                tracer, evaluate, assignments, rngs, chunk_size, progress, policy
            )
        values: List[float] = []
        durations = np.empty(n)
        report = FaultReport()
        for k in range(n):
            value, seconds, error, attempts = _run_task(
                evaluate, assignments[k], None if rngs is None else rngs[k], policy, k
            )
            values.append(value)
            durations[k] = seconds
            report.record(error, attempts)
            if progress is not None:
                progress(k + 1, n)
        return values, durations, report

    def _run_traced(self, tracer, evaluate, assignments, rngs, chunk_size, progress, policy):
        """The traced serial path: the same loop, grouped into the same
        per-chunk spans the pool backends emit — so a serial trace of a
        batch is structurally identical to a pooled one (for the same
        ``chunk_size``) modulo timings."""
        n = len(assignments)
        size = chunk_size if chunk_size is not None else default_chunk_size(n, self.n_jobs)
        values: List[float] = []
        durations = np.empty(n)
        report = FaultReport()
        for ci, chunk in enumerate(_chunk_indices(n, max(1, size))):
            with tracer.span("engine.chunk", index=ci, tasks=len(chunk)):
                for k in chunk:
                    value, seconds, error, attempts = _run_task(
                        evaluate, assignments[k], None if rngs is None else rngs[k], policy, k
                    )
                    values.append(value)
                    durations[k] = seconds
                    report.record(error, attempts)
                    if progress is not None:
                        progress(k + 1, n)
        return values, durations, report


class _PoolExecutor(Executor):
    """Shared chunked fan-out logic for the thread and process pools."""

    def __init__(self, n_jobs: int = 2):
        if n_jobs < 1:
            raise ModelDefinitionError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = int(n_jobs)
        self._lock = threading.Lock()
        self._holds = 0
        self._pool: Optional[concurrent.futures.Executor] = None
        #: the ship-once evaluator the held pool's workers hold, and its stand-in
        self._shipped: Optional[Evaluator] = None
        self._stand_in: Optional[Evaluator] = None

    def __enter__(self) -> "_PoolExecutor":
        with self._lock:
            self._holds += 1
        return self

    def __exit__(self, *exc_info: Any) -> None:
        with self._lock:
            self._holds -= 1
            pool = self._pool if self._holds == 0 else None
            if pool is not None:
                self._pool = self._shipped = self._stand_in = None
        if pool is not None:
            pool.shutdown(wait=True)

    def _make_pool(self, shipped: Optional[Tuple[str, bytes]]) -> concurrent.futures.Executor:
        raise NotImplementedError

    def _check_batch(self, evaluate, assignments, rngs) -> None:
        """Backend-specific pre-dispatch validation (pickling guard)."""

    def _ships(self, evaluate: Evaluator) -> bool:
        """Whether ``evaluate`` is installed in the workers by the pool
        initializer, which ties the pool to that evaluator."""
        return False

    def _prepare(self, evaluate: Evaluator) -> Tuple[Optional[Tuple[str, bytes]], Evaluator]:
        """Backend hook: ``(initializer payload, evaluator to submit)``.

        The process backend overrides this to ship ``__ship_once__``
        evaluators through the pool initializer instead of per chunk.
        """
        return None, evaluate

    def _pool_for(self, evaluate: Evaluator) -> Tuple[concurrent.futures.Executor, Evaluator]:
        """The pool to submit to and the evaluator to submit.

        Reuses the held pool unless it shipped a different evaluator
        than the one ``evaluate`` needs; a replaced pool finishes the
        work already queued on it and then exits.  Call with
        ``self._lock`` held.
        """
        ships = self._ships(evaluate)
        if self._pool is None or (ships and evaluate is not self._shipped):
            stale = self._pool
            shipped, self._stand_in = self._prepare(evaluate)
            self._pool = self._make_pool(shipped)
            self._shipped = evaluate if ships else None
            if stale is not None:
                stale.shutdown(wait=False)
        return self._pool, self._stand_in if ships else evaluate

    def _discard(self, pool: concurrent.futures.Executor) -> None:
        """Drop a broken pool so the next run forks fresh workers."""
        with self._lock:
            if self._pool is pool:
                self._pool = self._shipped = self._stand_in = None
        pool.shutdown(wait=True)

    def run(self, evaluate, assignments, rngs=None, chunk_size=None, progress=None, policy=None):
        n = self._validate(assignments, rngs)
        if n == 0:
            return [], np.empty(0), FaultReport()
        self._check_batch(evaluate, assignments, rngs)
        size = chunk_size if chunk_size is not None else default_chunk_size(n, self.n_jobs)
        if size < 1:
            raise ModelDefinitionError(f"chunk_size must be >= 1, got {size}")
        chunks = _chunk_indices(n, size)
        values: List[Optional[float]] = [None] * n
        durations = np.empty(n)
        report = FaultReport()
        completed: set = set()
        done = 0
        tracer = get_tracer()
        traced = tracer.enabled
        # Worker-recorded chunk spans, keyed by chunk position so the
        # grafted tree is in submission order regardless of the
        # completion order `as_completed` happens to produce.
        span_dicts: Dict[int, dict] = {}
        chunk_pos = {chunk: ci for ci, chunk in enumerate(chunks)}

        def submit_args(chunk):
            args = (
                evaluate,
                [assignments[i] for i in chunk],
                None if rngs is None else [rngs[i] for i in chunk],
                policy,
                list(chunk),
            )
            if traced:
                ci = chunk_pos[chunk]
                return _run_chunk_traced, args + (
                    {"index": ci, "tasks": len(chunk)},
                )
            return _run_chunk, args

        def consume(chunk, outcome):
            nonlocal done
            if traced:
                chunk_results, span_dict = outcome
                span_dicts[chunk_pos[chunk]] = span_dict
            else:
                chunk_results = outcome
            for i, (value, seconds, error, attempts) in zip(chunk, chunk_results):
                values[i] = value
                durations[i] = seconds
                report.record(error, attempts)
            completed.add(chunk)
            done += len(chunk)
            if progress is not None:
                progress(done, n)

        broken: Optional[BaseException] = None
        with self:
            futures = {}
            with self._lock:
                # `submit_args` sees the rebound evaluator (the stand-in
                # of a shipped one)
                pool, evaluate = self._pool_for(evaluate)
                for chunk in chunks:
                    fn, args = submit_args(chunk)
                    futures[pool.submit(fn, *args)] = chunk
            for future in concurrent.futures.as_completed(futures):
                chunk = futures[future]
                try:
                    outcome = future.result()
                except concurrent.futures.BrokenExecutor as exc:
                    # A worker died (segfault, os._exit, OOM kill): every
                    # outstanding future is lost.  Drop the pool; the
                    # unfinished chunks are re-dispatched serially below
                    # when the policy allows it.
                    broken = exc
                    self._discard(pool)
                    break
                except Exception:
                    # Fail-fast path (policy None / on_error="raise"):
                    # drop the chunks not yet dispatched, let in-flight
                    # ones finish, re-raise the evaluator's exception.
                    for pending_future in futures:
                        pending_future.cancel()
                    concurrent.futures.wait(futures)
                    raise
                consume(chunk, outcome)

        if broken is not None:
            if policy is None or not policy.recover_broken_pool:
                raise SolverError(
                    f"worker pool broke mid-batch ({type(broken).__name__}: {broken}); "
                    f"pass a FaultPolicy(recover_broken_pool=True) to re-dispatch the "
                    f"unfinished chunks serially"
                ) from broken
            # Evaluators routed through the engine are pure functions of
            # (assignment, rng), so chunks that finished in a worker but
            # were not yet consumed can simply be evaluated again.
            report.pool_recoveries += 1
            for chunk in chunks:
                if chunk in completed:
                    continue
                fn, args = submit_args(chunk)
                consume(chunk, fn(*args))
        if traced:
            for ci in sorted(span_dicts):
                tracer.graft(span_dicts[ci])
        return values, durations, report


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend — shared memory, no pickling requirements.

    Python-level evaluators stay GIL-bound (no speedup); use it when the
    evaluator spends its time in native code or I/O, or to overlap an
    expensive progress callback with evaluation.
    """

    name = "thread"

    def _make_pool(self, shipped):
        return concurrent.futures.ThreadPoolExecutor(max_workers=self.n_jobs)


class ProcessExecutor(_PoolExecutor):
    """Chunked process-pool backend — true parallelism for Python code.

    The evaluator and its assignments must pickle (checked up front with
    a clear error); chunking amortizes the per-dispatch IPC cost so even
    millisecond-scale model solves scale with cores.
    """

    name = "process"

    def _make_pool(self, shipped):
        return _process_pool(self.n_jobs, shipped)

    def _check_batch(self, evaluate, assignments, rngs) -> None:
        ensure_picklable(evaluate, "the evaluator")
        if len(assignments):
            ensure_picklable(assignments[0], "the parameter assignment")

    def _ships(self, evaluate: Evaluator) -> bool:
        return bool(getattr(evaluate, "__ship_once__", False))

    def _prepare(self, evaluate: Evaluator) -> Tuple[Optional[Tuple[str, bytes]], Evaluator]:
        """Ship ``__ship_once__`` evaluators once per worker.

        The evaluator is pickled a single time into the pool
        initializer's arguments; submitted chunks carry only a
        :class:`_ShippedEvaluator` key.  Values are unchanged — the
        worker calls the identical unpickled instance it would otherwise
        receive per chunk.  Runs once per pool, so once per campaign
        when the executor is held across its chunks.
        """
        if not self._ships(evaluate):
            return None, evaluate
        key = f"ship-{next(_ship_counter)}"
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter(
                "engine.shipped_evaluators", evaluator=type(evaluate).__name__
            ).inc()
        return (key, pickle.dumps(evaluate)), _ShippedEvaluator(key, evaluate)


def resolve_executor(n_jobs: int = 1, executor=None) -> Executor:
    """Normalize user intent into an :class:`Executor` instance.

    ``executor`` may be an instance (returned as-is), one of the names
    ``"serial"`` / ``"thread"`` / ``"process"``, or ``None`` — in which
    case ``n_jobs`` decides: 1 is serial, more is a process pool (the
    backend that actually speeds up the library's pure-Python solvers).
    """
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        if n_jobs < 1:
            raise ModelDefinitionError(f"n_jobs must be >= 1, got {n_jobs}")
        return SerialExecutor() if n_jobs == 1 else ProcessExecutor(n_jobs)
    names = {"serial": SerialExecutor, "thread": ThreadExecutor, "process": ProcessExecutor}
    try:
        cls = names[executor]
    except (KeyError, TypeError):
        raise ModelDefinitionError(
            f"unknown executor {executor!r}; use an Executor instance or one of "
            f"{sorted(names)}"
        ) from None
    if n_jobs < 1:
        raise ModelDefinitionError(f"n_jobs must be >= 1, got {n_jobs}")
    # The requested worker count is respected exactly — a named pool
    # backend with n_jobs=1 is a one-worker pool, not a silent upgrade.
    return cls() if cls is SerialExecutor else cls(n_jobs)


def parallel_starmap(
    fn: Callable[..., Any],
    argtuples: Iterable[Tuple],
    n_jobs: int,
) -> List[Any]:
    """Order-preserving ``starmap`` over a process pool.

    The low-level sibling of :meth:`Executor.run` for workloads whose
    tasks are not parameter assignments (the Monte Carlo simulators map
    *trial chunks*, not parameter dicts).  ``n_jobs == 1`` degenerates
    to an in-process loop; otherwise ``fn`` and every argument tuple
    must pickle (checked up front with a clear error).
    """
    tasks = list(argtuples)
    if n_jobs < 1:
        raise ModelDefinitionError(f"n_jobs must be >= 1, got {n_jobs}")
    if n_jobs == 1 or len(tasks) <= 1:
        return [fn(*args) for args in tasks]
    ensure_picklable(fn, "the worker function")
    for args in tasks[:1]:
        ensure_picklable(args, "the worker arguments")
    with _process_pool(n_jobs) as pool:
        return list(pool.map(fn, *zip(*tasks)))
