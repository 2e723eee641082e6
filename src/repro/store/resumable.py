"""Checkpointed campaign execution: :class:`ResumableCampaign`.

The runner that turns the durable store into crash-proof sweeps.  A
campaign's design is declared once (ordered point keys + a chunk plan);
execution is then a *drain loop* that any number of workers can run
against the same store file::

    claim a chunk lease -> skip points already stored ok ->
    evaluate the rest -> commit results + completion atomically -> repeat

Because the loop is the same whether the campaign is fresh, resumed
after ``kill -9``, or shared by N worker processes, there is exactly one
code path to trust: a restart is just a worker joining a partially
drained campaign.  The chunk commit is one sqlite transaction, so the
blast radius of a hard kill is at most the chunk in flight; everything
committed before it is never re-evaluated (the lease tests assert this
with an evaluation-call counter).

Stored *failures* are not sticky: on open, completed chunks containing
error rows are reopened so the failed points are re-dispatched under the
current :class:`~repro.robust.FaultPolicy`, and a success overwrites the
stored error (never the other way around).
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..engine.batch import evaluate_batch
from ..engine.campaign import CampaignResult, CampaignSpec, PointsCampaign
from ..engine.executors import resolve_executor
from ..engine.options import EngineOptions
from ..engine.stats import EngineStats
from ..exceptions import ModelDefinitionError
from ..obs.trace import get_tracer
from .naming import model_name_for, resolve_evaluator
from .store import CampaignStore, decode_point_key, encode_point_key

__all__ = ["ResumableCampaign", "campaign_id_for", "resume_campaign"]


def campaign_id_for(
    model: str, point_keys: Sequence[str], seed: str = "", chunk_size: int = 25
) -> str:
    """Deterministic campaign id for a (model, design, seed, chunking).

    Re-running the same spec against the same store resolves to the same
    campaign row — which is precisely what makes ``resume`` a no-keyword
    operation: declare the campaign again, get the old one back.
    """
    payload = json.dumps(
        [model, seed, int(chunk_size), list(point_keys)], separators=(",", ":")
    )
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()
    return f"c{digest}"


def default_worker_id() -> str:
    """``host:pid`` — unique per live worker process."""
    return f"{socket.gethostname()}:{os.getpid()}"


class ResumableCampaign:
    """A campaign whose progress lives in a :class:`CampaignStore`.

    Parameters
    ----------
    evaluate:
        The evaluator callable, or ``None`` to resolve it from ``model``
        (see :func:`~repro.store.resolve_evaluator`).
    spec:
        A :class:`~repro.engine.CampaignSpec` or an explicit sequence of
        assignment mappings.
    store:
        The durable store (shared by every worker of the campaign).
    model:
        Durable model name; derived from ``evaluate`` when omitted.
    seed:
        Store seed column (``""`` for deterministic evaluators).
    chunk_size:
        Points per checkpoint — the maximum work a hard kill can lose.
    campaign_id:
        Explicit id; defaults to the deterministic
        :func:`campaign_id_for` of the materialized design.
    worker_id:
        This worker's lease identity (default ``host:pid``).
    lease_ttl:
        Seconds a claimed chunk stays owned without a heartbeat; a
        crashed worker's chunk becomes claimable after this long.
    options:
        :class:`~repro.engine.EngineOptions` for the per-chunk
        evaluation (policy, compile, inner ``n_jobs``...).  The
        campaign's own checkpointing replaces ``cache``/``progress``.
        The executor is resolved once per :meth:`run` and held open
        across its chunks.  A named backend resolves to the process's
        one warm executor for it, so workers are forked once per
        process, not per campaign or chunk; an executor instance keeps
        its pool for as long as its caller holds it.
    retry_failures:
        Reopen chunks containing stored failures on start (default).

    Attributes
    ----------
    evaluated_points / skipped_points:
        This worker's evaluator calls vs. points served from the store.
    committed_chunks / duplicate_commits:
        Chunks this worker checkpointed, and result rows it lost to a
        first-writer (non-zero only under racing workers, and the race
        loser's rows are *not* written — zero duplicate commits).

    Examples
    --------
    >>> store = CampaignStore(":memory:")
    >>> campaign = ResumableCampaign(
    ...     lambda p: p["x"] ** 2, [{"x": float(x)} for x in range(4)],
    ...     store, model="square", chunk_size=2)
    >>> campaign.run().outputs.tolist()
    [0.0, 1.0, 4.0, 9.0]
    >>> campaign2 = ResumableCampaign(      # same design: resumes, all stored
    ...     lambda p: p["x"] ** 2, [{"x": float(x)} for x in range(4)],
    ...     store, model="square", chunk_size=2)
    >>> campaign2.run().outputs.tolist()
    [0.0, 1.0, 4.0, 9.0]
    >>> campaign2.evaluated_points, campaign2.skipped_points
    (0, 4)
    >>> store.close()
    """

    def __init__(
        self,
        evaluate: Optional[Callable],
        spec: Union[CampaignSpec, Sequence[Mapping[str, float]]],
        store: CampaignStore,
        model: Optional[str] = None,
        seed: str = "",
        chunk_size: int = 25,
        campaign_id: Optional[str] = None,
        worker_id: Optional[str] = None,
        lease_ttl: float = 60.0,
        options: Optional[EngineOptions] = None,
        retry_failures: bool = True,
    ):
        if chunk_size < 1:
            raise ModelDefinitionError(f"chunk_size must be >= 1, got {chunk_size}")
        if lease_ttl <= 0:
            raise ModelDefinitionError(f"lease_ttl must be positive, got {lease_ttl}")
        if model is None:
            if evaluate is None:
                raise ModelDefinitionError(
                    "give a model name, an evaluator, or both; got neither"
                )
            model = model_name_for(evaluate)
        if evaluate is None:
            evaluate = resolve_evaluator(model)
        self.evaluate = evaluate
        self.spec: CampaignSpec = (
            spec if isinstance(spec, CampaignSpec) else PointsCampaign(spec)
        )
        self.store = store
        self.model = str(model)
        self.seed = str(seed)
        self.chunk_size = int(chunk_size)
        self.campaign_id = campaign_id
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.lease_ttl = float(lease_ttl)
        self.options = options if options is not None else EngineOptions()
        self.retry_failures = bool(retry_failures)
        self.evaluated_points = 0
        self.skipped_points = 0
        self.committed_chunks = 0
        self.duplicate_commits = 0
        self.complete = False

    # ---------------------------------------------------------------- run
    def run(
        self,
        rng: Optional[np.random.Generator] = None,
        throttle: float = 0.0,
        should_stop: Optional[Callable[[], bool]] = None,
        max_chunks: Optional[int] = None,
        wait: bool = True,
        poll: float = 0.05,
    ) -> CampaignResult:
        """Drain the campaign and return its (stored) results.

        ``rng`` seeds randomized designs exactly as
        :func:`~repro.engine.run_campaign` does.  ``throttle`` sleeps
        that many seconds before each evaluation (test hook for killing
        a worker mid-chunk).  ``should_stop`` is polled between chunks —
        when it turns true the worker finishes its in-flight chunk,
        commits it, and returns partial results (graceful shutdown).
        ``max_chunks`` bounds this worker's share.  With ``wait`` the
        call blocks until the whole campaign is drained (by anyone);
        without it, it returns as soon as this worker runs out of
        claimable chunks.
        """
        t0 = time.perf_counter()
        assignments = self.spec.assignments(rng)
        encoded = [encode_point_key(point) for point in assignments]
        if self.campaign_id is None:
            self.campaign_id = campaign_id_for(
                self.model, encoded, seed=self.seed, chunk_size=self.chunk_size
            )
        self.store.create_campaign(
            self.campaign_id, self.model, encoded,
            chunk_size=self.chunk_size, seed=self.seed,
        )
        if self.retry_failures:
            self._reopen_failed_chunks(encoded)

        tracer = get_tracer()
        span = (
            tracer.span(
                "store.campaign",
                campaign_id=self.campaign_id,
                model=self.model,
                n_points=len(assignments),
            )
            if tracer.enabled
            else nullcontext()
        )
        # One executor for the whole drain loop, held open across its
        # chunks; a named backend's workers are already warm from earlier
        # campaigns in this process.
        executor = resolve_executor(self.options.n_jobs, self.options.executor)
        options = self.options.replace(
            executor=executor, cache=None, progress=None, tracer=None
        )
        durations: List[float] = []
        n_retries = pool_recoveries = 0
        stopped = False
        with span, executor:
            chunks_done = 0
            while True:
                if should_stop is not None and should_stop():
                    stopped = True
                    break
                if max_chunks is not None and chunks_done >= max_chunks:
                    break
                chunk_id = self.store.claim_chunk(
                    self.campaign_id, self.worker_id, ttl=self.lease_ttl
                )
                if chunk_id is None:
                    if self._campaign_complete():
                        break
                    if not wait:
                        break
                    # live leases elsewhere: wait for them to finish or expire
                    time.sleep(poll)
                    continue
                chunk_stats = self._run_chunk(
                    chunk_id, assignments, encoded, options, throttle=throttle
                )
                if chunk_stats is not None:
                    durations.extend(chunk_stats.durations.tolist())
                    n_retries += chunk_stats.n_retries
                    pool_recoveries += chunk_stats.pool_recoveries
                chunks_done += 1

        self.complete = self._campaign_complete()
        outputs, errors, missing = self._collect(encoded)
        # points neither evaluated by this worker nor still missing were
        # served from the store — the resume/skip payoff
        self.skipped_points = max(
            0, len(assignments) - self.evaluated_points - missing
        )
        wall = time.perf_counter() - t0
        stats = EngineStats(
            executor="store",
            n_jobs=1,
            n_tasks=len(assignments),
            durations=durations,
            wall_time=wall,
            cache_hits=self.skipped_points,
            cache_misses=self.evaluated_points,
            n_failed=len(errors),
            n_retries=n_retries,
            pool_recoveries=pool_recoveries,
        )
        if tracer.enabled:
            tracer.metrics.counter(
                "store.campaign.runs",
                model=self.model,
                complete=str(self.complete).lower(),
                stopped=str(stopped).lower(),
            ).inc()
        return CampaignResult(self.spec, assignments, outputs, stats, errors)

    # ------------------------------------------------------------- pieces
    def _chunk_indices(self, chunk_id: int, n: int) -> range:
        lo = chunk_id * self.chunk_size
        return range(lo, min(lo + self.chunk_size, n))

    def _run_chunk(
        self,
        chunk_id: int,
        assignments: List[Dict[str, float]],
        encoded: Sequence[str],
        options: EngineOptions,
        throttle: float = 0.0,
    ) -> Optional[EngineStats]:
        """Evaluate one claimed chunk and checkpoint it atomically.

        Returns the stats of the chunk's batch, or ``None`` when every
        point was already stored ok.
        """
        indices = self._chunk_indices(chunk_id, len(assignments))
        keys = [encoded[i] for i in indices]
        stored = self.store.lookup_many(self.model, keys, seed=self.seed)
        todo: List[int] = []  # positions within the chunk
        for pos, key in enumerate(keys):
            prior = stored.get(key)
            if prior is None or not prior.ok:
                todo.append(pos)
        tracer = get_tracer()
        if tracer.enabled and len(todo) < len(keys):
            tracer.metrics.counter("store.points.skipped", model=self.model).inc(
                len(keys) - len(todo)
            )
        stats = None
        rows = []
        if todo:
            evaluate = self.evaluate
            if throttle > 0.0:
                inner = evaluate

                def evaluate(point, _inner=inner):
                    time.sleep(throttle)
                    return _inner(point)

            batch = evaluate_batch(
                evaluate,
                [assignments[indices[pos]] for pos in todo],
                options=options,
            )
            stats = batch.stats
            self.evaluated_points += len(todo)
            if tracer.enabled:
                tracer.metrics.counter(
                    "store.points.evaluated", model=self.model
                ).inc(len(todo))
            errors_by_pos = {err.index: err for err in batch.errors}
            durations = stats.durations
            for k, pos in enumerate(todo):
                error = errors_by_pos.get(k)
                value = float(batch.outputs[k])
                duration = float(durations[k]) if k < len(durations) else 0.0
                attempts = error.attempts if error is not None else 1
                rows.append((keys[pos], value, error, duration, attempts))
        written, duplicates = self.store.record_chunk(
            self.campaign_id,
            chunk_id,
            self.model,
            rows,
            seed=self.seed,
            worker_id=self.worker_id,
        )
        self.committed_chunks += 1
        self.duplicate_commits += duplicates
        if tracer.enabled:
            tracer.metrics.counter("store.chunks.committed", model=self.model).inc()
            if duplicates:
                tracer.metrics.counter(
                    "store.commit.duplicates", model=self.model
                ).inc(duplicates)
        return stats

    def _reopen_failed_chunks(self, encoded: Sequence[str]) -> int:
        """Re-dispatch stored failures: reopen their completed chunks."""
        failed_keys = {
            result.point_key for result in self.store.failures(self.model)
        }
        if not failed_keys:
            return 0
        chunk_ids = sorted(
            {
                idx // self.chunk_size
                for idx, key in enumerate(encoded)
                if key in failed_keys
            }
        )
        completed = {
            state["chunk_id"]
            for state in self.store.chunk_states(self.campaign_id)
            if state["completed"]
        }
        reopened = self.store.reopen_chunks(
            self.campaign_id, [c for c in chunk_ids if c in completed]
        )
        if reopened:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.metrics.counter(
                    "store.chunks.reopened", model=self.model
                ).inc(reopened)
        return reopened

    def _campaign_complete(self) -> bool:
        return all(
            state["completed"] for state in self.store.chunk_states(self.campaign_id)
        )

    def _collect(self, encoded: Sequence[str]):
        """Assemble outputs/errors for the design from the stored rows."""
        stored = self.store.lookup_many(self.model, encoded, seed=self.seed)
        outputs = np.full(len(encoded), np.nan)
        errors = []
        missing = 0
        for idx, key in enumerate(encoded):
            result = stored.get(key)
            if result is None:
                missing += 1  # chunk still unclaimed/unfinished (partial return)
                continue
            if result.ok:
                outputs[idx] = result.value
            else:
                errors.append(result.to_error_record(idx))
        return outputs, errors, missing

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResumableCampaign({self.model!r}, campaign_id={self.campaign_id!r}, "
            f"chunk_size={self.chunk_size})"
        )


def resume_campaign(
    store: CampaignStore,
    campaign_id: str,
    evaluate: Optional[Callable] = None,
    worker_id: Optional[str] = None,
    lease_ttl: float = 60.0,
    options: Optional[EngineOptions] = None,
    retry_failures: bool = True,
    **run_kwargs,
) -> CampaignResult:
    """Resume a declared campaign purely from its durable record.

    Reads the campaign header and task list out of ``store``, resolves
    the evaluator from the stored model name (unless one is passed), and
    drains whatever work remains.  This is the CLI ``resume`` verb and
    the entry point a fresh worker host uses to join a campaign it has
    never seen.
    """
    header = store.campaign(campaign_id)
    points = [decode_point_key(key) for key in store.campaign_points(campaign_id)]
    campaign = ResumableCampaign(
        evaluate,
        [dict(point) for point in points],
        store,
        model=str(header["model"]),
        seed=str(header["seed"]),
        chunk_size=int(header["chunk_size"]),  # type: ignore[call-overload]
        campaign_id=campaign_id,
        worker_id=worker_id,
        lease_ttl=lease_ttl,
        options=options,
        retry_failures=retry_failures,
    )
    result = campaign.run(**run_kwargs)
    result.campaign = campaign  # type: ignore[attr-defined]
    return result
