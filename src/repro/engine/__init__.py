"""Parallel batch-evaluation engine (E30).

The library's batch workhorse: every workload that maps one model
evaluator over many parameter assignments — uncertainty propagation,
tornado and central-difference sensitivity, what-if grids, Monte Carlo
designs — routes through :func:`evaluate_batch`, which composes

* an :class:`Executor` backend (:class:`SerialExecutor`,
  :class:`ThreadExecutor`, chunked :class:`ProcessExecutor`) with
  deterministic per-task RNG spawning, so results are bit-identical
  across executors for a given seed;
* an optional memoizing :class:`EvaluationCache` keyed on the frozen
  assignment, deduplicating repeated baseline/median points;
* :class:`EngineStats` instrumentation — per-evaluation wall times,
  throughput, cache hit rate, worker utilization — plus a
  ``progress(done, total)`` callback hook.

:mod:`~repro.engine.campaign` adds declarative designs
(:class:`GridCampaign`, :class:`SwingCampaign`,
:class:`SamplingCampaign`) on top.
"""

from .batch import BatchResult, evaluate_batch
from .cache import EvaluationCache, canonical_point_key
from .campaign import (
    CampaignResult,
    CampaignSpec,
    GridCampaign,
    PointsCampaign,
    SamplingCampaign,
    SwingCampaign,
    run_campaign,
)
from .executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    parallel_starmap,
    resolve_executor,
    spawn_generators,
)
from .options import EngineOptions, resolve_options
from .stats import EngineStats, ProgressPrinter

__all__ = [
    "evaluate_batch",
    "BatchResult",
    "EngineOptions",
    "resolve_options",
    "EvaluationCache",
    "canonical_point_key",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "spawn_generators",
    "parallel_starmap",
    "EngineStats",
    "ProgressPrinter",
    "CampaignSpec",
    "PointsCampaign",
    "GridCampaign",
    "SwingCampaign",
    "SamplingCampaign",
    "CampaignResult",
    "run_campaign",
]
