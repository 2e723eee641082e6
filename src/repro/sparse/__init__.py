"""Large-state-space models and solvers (CSR generators, Krylov numerics).

The scale subsystem: everything needed to build and solve CTMCs with
10^5–10^7 states without ever materializing a dense matrix or a
per-state Python object graph.

* :class:`SparseCTMC` — the structure-frozen model object (CSR
  generator + lazy state labels) accepted by the standard front doors
  (``steady_state``/``transient``, :func:`repro.compile_model`,
  :func:`repro.analyze.analyze`, :func:`repro.evaluate_batch`);
* :func:`build_sparse_reachability` — SRN reachability straight into
  CSR triplet buffers with marking interning and a bounded-memory guard
  (the generation step behind every
  :class:`~repro.petrinet.StochasticRewardNet`);
* :mod:`repro.sparse.krylov` — ``expm_multiply`` transient stepping and
  preconditioned GMRES/BiCGSTAB steady state, registered as methods
  ``"krylov"``, ``"gmres"`` and ``"bicgstab"`` in the
  :mod:`repro.markov.registry` solver registries.

See ``docs/SCALING.md`` for thresholds, knobs and sizing guidance.
"""

from __future__ import annotations

from .ctmc import SparseCTMC
from .krylov import augmented_system, steady_state_iterative, transient_krylov
from .reachability import SparseReachabilityResult, build_sparse_reachability

__all__ = [
    "SparseCTMC",
    "SparseReachabilityResult",
    "build_sparse_reachability",
    "augmented_system",
    "steady_state_iterative",
    "transient_krylov",
]
