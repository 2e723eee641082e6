"""repro.serve — the always-on availability-query daemon (E35).

The tutorial's models answer "what is the availability at *this*
parameter point?"; this subsystem keeps those answers a ``curl`` away.
A long-running HTTP daemon — stdlib only, zero new dependencies —
serves availability queries against a :class:`ModelRegistry` of named
models, preloaded with the nine tutorial case studies
(:func:`default_registry`) and open to user registrations.

The serving pipeline reuses the library's own machinery end to end:

* **warm evaluators** — registration compiles what the compile
  subsystem accepts (:func:`~repro.compile.compile_model`), runs the
  static lint (:func:`~repro.analyze.analyze`, strict by default) and
  probes the nominal point, so startup — not the first request — pays
  every avoidable cost;
* **micro-batching** — a :class:`MicroBatcher` coalesces concurrent
  point queries into single :func:`~repro.engine.evaluate_batch` calls
  (deduplicated on :func:`~repro.engine.canonical_point_key`), trading
  a bounded ``flush_window`` of latency for batch throughput;
* **result cache** — a :class:`ResultCache` of per-model
  :class:`~repro.engine.EvaluationCache` LRUs (failures never cached);
* **observability** — per-request spans into a shared
  :class:`~repro.obs.ThreadSafeMetricsRegistry`, exported at
  ``GET /metrics`` in the Prometheus text format
  (:func:`~repro.obs.to_prometheus`); every failure leaves as a
  structured :class:`~repro.robust.ErrorRecord` JSON envelope.

Run it::

    python -m repro.serve --port 8035

    curl -s localhost:8035/models
    curl -s -X POST localhost:8035/models/bladecenter/evaluate \
         -d '{"blade_failure_rate": 0.0001}'

Served values are bit-identical to a direct
:func:`~repro.engine.evaluate_batch` call on the same evaluator — the
daemon adds transport and scheduling, never arithmetic.
"""

from .app import ServeApp, ServeServer, create_server
from .batcher import EvaluationFailed, MicroBatcher
from .cache import ResultCache
from .registry import ModelRegistry, RegisteredModel, UnknownModelError, default_registry
from .schemas import RequestError

__all__ = [
    "ServeApp",
    "ServeServer",
    "create_server",
    "MicroBatcher",
    "EvaluationFailed",
    "ResultCache",
    "ModelRegistry",
    "RegisteredModel",
    "UnknownModelError",
    "default_registry",
    "RequestError",
]
