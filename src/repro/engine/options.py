"""The engine's unified keyword surface: :class:`EngineOptions`.

PR 1/2 grew the same six loose keyword arguments (``n_jobs``,
``chunk_size``, ``executor``, ``cache``, ``progress``, ``policy``) on
every batch entry point, and this PR adds a seventh (``tracer``).  An
:class:`EngineOptions` instance names them once and travels as a single
``options=`` argument through :func:`~repro.engine.evaluate_batch`,
:func:`~repro.engine.run_campaign`,
:func:`~repro.core.uncertainty.propagate_uncertainty`,
:func:`~repro.core.uncertainty.tornado_sensitivity` and
:func:`~repro.core.sensitivity.parametric_sensitivity`.

The loose keywords still work everywhere and, when passed explicitly,
**override** the corresponding ``options`` field — so sharing one
options object across a study while bumping ``n_jobs`` for a single
heavy sweep reads exactly as you'd hope::

    opts = EngineOptions(cache=EvaluationCache(), policy=FaultPolicy("retry"))
    evaluate_batch(f, points, options=opts)             # serial
    evaluate_batch(f, points, options=opts, n_jobs=8)   # same cache/policy, 8 workers
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["EngineOptions", "resolve_options"]


@dataclass
class EngineOptions:
    """Execution options shared by every batch entry point.

    Attributes
    ----------
    n_jobs:
        Worker count; 1 runs serially, more selects a chunked process
        pool unless ``executor`` overrides the backend.
    chunk_size:
        Tasks per dispatch unit for pool backends (``None`` = ~4 chunks
        per worker).
    executor:
        ``None``, an :class:`~repro.engine.executors.Executor` instance,
        or ``"serial"`` / ``"thread"`` / ``"process"``.
    cache:
        Optional memoizing :class:`~repro.engine.EvaluationCache`.
    progress:
        Optional ``progress(done, total)`` callback.
    policy:
        Optional :class:`~repro.robust.FaultPolicy` isolating task
        faults.
    tracer:
        Optional :class:`~repro.obs.Tracer` installed as the active one
        for the duration of the call — equivalent to wrapping the call
        in ``with activate_tracer(tracer):``.  ``None`` (default) uses
        whatever tracer the ambient :func:`repro.obs.trace` block
        installed, or the no-op tracer outside any block.
    compile:
        Compiled-evaluator substitution (see :mod:`repro.compile`).
        ``None`` (default) auto-compiles evaluators that advertise a
        compiled form (``__compiles_to__``) whenever no ``rng`` is in
        play — results are bit-identical, so this is purely a
        performance decision.  ``True`` forces compilation (raising
        when the evaluator has no compiled form); ``False`` disables
        substitution entirely.
    diagnostics:
        Static-analysis mode for the evaluator (see
        :mod:`repro.analyze`): ``"ignore"`` (default) skips the lint,
        ``"warn"`` runs a one-shot pre-flight before the batch and
        reports findings as :class:`~repro.exceptions.DiagnosticWarning`,
        ``"strict"`` raises
        :class:`~repro.exceptions.ModelDiagnosticError` on any
        error-severity finding.  The pre-flight runs once in the parent
        process, so serial, thread and process executors behave
        identically.
    store:
        Optional durable :class:`~repro.store.CampaignStore` (or a path
        string opened as one).  Campaign entry points route through
        :class:`~repro.store.ResumableCampaign`, checkpointing each
        completed chunk so the sweep survives process death; see
        ``docs/DURABILITY.md``.  Non-campaign batch calls ignore it.
    resume:
        Only meaningful with ``store``.  ``None``/``True`` (default)
        reuses stored successes and re-dispatches stored failures —
        restart loses at most the round in flight (one store chunk per
        executor worker).  ``False`` records
        durably but evaluates every point fresh this run.
    """

    n_jobs: int = 1
    chunk_size: Optional[int] = None
    executor: Any = None
    cache: Any = None
    progress: Optional[Callable[[int, int], None]] = None
    policy: Any = None
    tracer: Any = None
    compile: Any = None
    diagnostics: str = "ignore"
    store: Any = None
    resume: Optional[bool] = None

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def merged(self, **overrides: Any) -> "EngineOptions":
        """A copy where every non-``None`` override wins over the field."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **changes) if changes else self


def resolve_options(options: Optional[EngineOptions] = None, **loose: Any) -> EngineOptions:
    """Fold loose keyword arguments over an optional options object.

    The merge rule of every batch entry point: start from ``options``
    (or defaults), then let each loose keyword that was explicitly
    passed (i.e. is not ``None``) override the corresponding field.
    """
    base = options if options is not None else EngineOptions()
    if not isinstance(base, EngineOptions):
        from ..exceptions import ModelDefinitionError

        raise ModelDefinitionError(
            f"options must be an EngineOptions instance, got {type(base).__name__}"
        )
    return base.merged(**loose)
