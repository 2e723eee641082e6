"""Compiled sparse sweeps: build the CSR once, fill rates per point.

A parameter sweep over a large-state-space chain re-runs BFS
reachability, re-interns every marking, re-factors the preconditioner
and cold-starts the Krylov iteration at **every** point — even though
the CSR structure is rate-independent.  :class:`CompiledSparseCTMC` is
the large-state-space front end on the compiled core of
:mod:`repro.compile.ctmc` (the same one :class:`~repro.compile.ctmc.CompiledCTMC`
uses):

* the core freezes the CSR ``indices``/``indptr`` arrays (byte-identical
  across every refill), one interned symbolic
  :class:`~repro.compile.ctmc.RateTerm` per *distinct* rate expression
  and a per-transition multiplier (the vanishing-resolution
  probability), and its ``fill`` scatters ``term_value × multiplier``
  into a thread-local ``data`` buffer — no re-BFS, no re-interning,
  O(nnz) work;
* per-point solves reuse the previous point's solution as the Krylov
  initial guess (``x0=`` warm start) and reuse the preconditioner
  across points with an adaptive refresh policy: Jacobi is refreshed
  in-place from the new diagonal, ILU is re-factored only when the
  iteration count regresses past a threshold;
* the normalized-augmented system ``A x = e_n`` is assembled per point
  by one precomputed gather from the filled ``data`` buffer — no
  transpose, no ``vstack``.

:func:`continuation_order` reorders an arbitrary campaign so that
consecutive points are nearest neighbors in (log-scaled, normalized)
parameter space, which is what makes warm starts pay off under grids.

The module deliberately never materializes a dense n×n array (lint rule
R007 enforces it, exactly as for :mod:`repro.sparse` and the shared
core).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from ..exceptions import ConvergenceError, ModelDefinitionError, SolverError
from ..markov.fallback import (
    GeneratorDiagnostics,
    SolverReport,
    _walk_fallback_chain,
    generator_diagnostics,
    solve_steady_state,
)
from ..markov.registry import POLICY
from ..obs.trace import get_tracer
from ..sparse.krylov import (
    ITERATIVE_METHODS,
    PRECONDITIONERS,
    JacobiOperator,
    augmented_system,
    build_preconditioner,
    steady_state_iterative,
)
from .ctmc import _FrozenChain
from .model import CompiledEvaluator

__all__ = [
    "CompiledSparseCTMC",
    "CompiledNFVChain",
    "continuation_order",
    "SweepStats",
]


@dataclass
class SweepStats:
    """Counters of one :meth:`CompiledSparseCTMC.sweep` run."""

    points: int = 0
    fills: int = 0
    warm_solves: int = 0
    cold_solves: int = 0
    fallbacks: int = 0
    precond_builds: int = 0
    precond_reuses: int = 0
    precond_refactors: int = 0
    iterations: List[Optional[int]] = field(default_factory=list, repr=False)
    fill_seconds: float = 0.0
    solve_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary (benchmarks persist this)."""
        summary: Dict[str, object] = dict(vars(self))
        known = [i for i in summary.pop("iterations") if i is not None]
        summary["mean_iterations"] = float(np.mean(known)) if known else None
        summary["max_iterations"] = max(known) if known else None
        return summary


class CompiledSparseCTMC(_FrozenChain, CompiledEvaluator):
    """A sparse CTMC with frozen CSR structure and symbolic rates.

    Built by :func:`repro.sparse.build_sparse_reachability` with
    ``rate_terms=`` (see :attr:`SparseReachabilityResult.compiled <repro.sparse.SparseReachabilityResult>`):
    the BFS runs exactly once, and every later parameter point is a
    rate-only refill of the same ``data`` array through the shared
    compiled core (``fill``, ``generator``, ``validate`` and the bounded
    memo live in :mod:`repro.compile.ctmc`).

    Parameters
    ----------
    frozen:
        The core's ``n, indices, indptr, trip_rows, trip_cols, terms,
        term_ids, multipliers``: the exact CSR arrays of the generator
        the lazy builder produced, the streamed triplets in BFS order
        (one per transition firing) and, per triplet, its interned term
        and vanishing-resolution probability — so a triplet's value is
        the same float expression the BFS computed as ``rate * prob``.
    up / initial:
        Optional up-state mask (enables :meth:`availability`) and
        initial probability vector, both in BFS state order.
    build_values:
        The parameter values the structure was generated at; the
        deterministic reference solution used to warm-start engine-path
        solves is computed here.
    """

    _PROCESS_LOCAL = _FrozenChain._PROCESS_LOCAL + ("_ref_pi", "_aug")

    def __init__(
        self,
        *frozen,
        up: Optional[np.ndarray] = None,
        initial: Optional[np.ndarray] = None,
        build_values: Optional[Mapping[str, float]] = None,
    ):
        super().__init__(*frozen)
        self.up = None if up is None else np.asarray(up, dtype=bool)
        self.initial = None if initial is None else np.asarray(initial, dtype=float)
        self._build_values: Dict[str, float] = dict(build_values or {})
        self._ref_pi: Optional[np.ndarray] = None
        self._aug: Optional[Tuple] = None
        #: which CSR slots hold off-diagonal entries (everything but the diagonal)
        self._off_mask = np.ones(self._nnz, dtype=bool)
        self._off_mask[self._diag_slots] = False
        #: strongly connected components of the all-rates-positive pattern
        self._n_strong: Optional[int] = None
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter("compile.sparse.structure_builds").inc()

    def size(self) -> Dict[str, int]:
        """Model-scale metadata (serve-registry advertisement form)."""
        return {
            "n_states": self.n,
            "n_chains": 1,
            "n_components": 0,
            "n_structure_functions": 0,
        }

    # -------------------------------------------- augmented-system reuse
    def _ensure_system(self):
        """Precompute the gather that assembles ``A x = e_n`` per point.

        ``A`` is ``Qᵀ`` with the last row replaced by ones.  Building it
        once from a probe matrix whose data values encode their own slot
        index yields, for every stored entry of ``A``, the position in
        the CSR ``data`` buffer it reads from — per-point assembly is a
        single fancy-index gather instead of a transpose + vstack.
        """
        if self._aug is None:
            probe = sparse.csr_matrix(
                (
                    np.arange(2.0, self._nnz + 2.0),
                    self._indices.copy(),
                    self._indptr.copy(),
                ),
                shape=(self.n, self.n),
            )
            a, b = augmented_system(probe)
            is_norm = a.data == 1.0
            positions = np.flatnonzero(~is_norm)
            src = (a.data[positions] - 2.0).astype(np.int64)
            a.data[is_norm] = 1.0
            self._aug = (a, b, positions, src)
        return self._aug

    def _assemble_system(self, data: np.ndarray):
        a, b, positions, src = self._ensure_system()
        a.data[positions] = data[src]
        return a, b

    def _jacobi(self, data: np.ndarray, inv: Optional[np.ndarray] = None):
        """(Re)build the Jacobi preconditioner from the filled diagonal.

        ``inv`` is the reusable buffer backing an existing operator; the
        in-place refresh is what "reusing" Jacobi across points means.
        """
        fresh = inv is None
        if fresh:
            inv = np.empty(self.n)
        diag = data[self._diag_slots]
        np.divide(1.0, np.where(diag == 0.0, 1.0, diag), out=inv[: self.n])
        inv[self.n - 1] = 1.0
        if not fresh:
            return None
        return JacobiOperator(inv), inv

    # ------------------------------------------------------------- solve
    def _reference(self) -> np.ndarray:
        """The fixed warm-start vector for engine-path solves.

        Solved cold at the compile-time parameter values through the
        fully-validated front door, once per process.  Warm-starting
        every point from this *same* deterministic vector (instead of
        chaining point to point) keeps batch results independent of
        evaluation order — serial, thread and process sweeps stay
        bit-identical.
        """
        if self._ref_pi is None:
            report = solve_steady_state(
                self.generator(self._build_values),
                iterative_limit=POLICY.iterative_states_reachability,
            )
            self._ref_pi = report.pi
        return self._ref_pi

    def steady_state_report(
        self,
        values: Mapping[str, float],
        x0: Union[None, str, np.ndarray] = "reference",
    ) -> SolverReport:
        """Fill at ``values`` and solve through the standard front door.

        ``x0="reference"`` (default) warm-starts chains above
        ``POLICY.iterative_states_reachability`` (below it the standard
        dense/direct chain wins and warm starts are pointless) from the
        :meth:`_reference` solution;
        ``x0=None`` forces a cold start; an explicit vector is forwarded
        as-is.  Below the limit the call is exactly what the uncompiled
        :meth:`repro.sparse.SparseCTMC.steady_state_report` runs on the
        same generator bytes, so small-chain results are bit-identical.
        """
        limit = POLICY.iterative_states_reachability
        if isinstance(x0, str):
            if x0 != "reference":
                raise SolverError(f"unknown x0 policy {x0!r}; use 'reference'")
            x0 = self._reference() if self.n > limit else None
        q = self.generator(values)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter("compile.reuse", kind="sparse").inc()
        start = perf_counter()
        diagnostics = self._frozen_diagnostics(q)
        if diagnostics is None:
            return solve_steady_state(q, iterative_limit=limit, x0=x0)
        return _walk_fallback_chain(
            q, diagnostics, perf_counter() - start, iterative_limit=limit, x0=x0
        )

    def _frozen_diagnostics(self, q: sparse.csr_matrix) -> Optional[GeneratorDiagnostics]:
        """The solver pre-flight of a filled generator, keyed on structure.

        When every stored off-diagonal rate is finite and positive, the
        nonzero pattern is the frozen CSR pattern, so its strongly
        connected components are counted once per structure; the rest
        of :func:`~repro.markov.fallback.generator_diagnostics` is an
        O(nnz) scan of ``q.data`` that equals the full computation field
        for field, and such a generator passes
        :func:`~repro.markov.solvers.validate_generator` exactly when its
        row sums are within tolerance.  Returns ``None`` — take the full
        pre-flight, which raises what it always raised — for any zero,
        negative or non-finite entry, a row sum out of tolerance, or a
        chain without off-diagonal entries.
        """
        data = q.data
        off = data[self._off_mask]
        if not off.size or not np.all(np.isfinite(data)) or not off.min() > 0.0:
            return None
        row_sums = np.asarray(q.sum(axis=1)).ravel()
        max_row_err = float(np.abs(row_sums).max())
        # validate_generator's row-sum check
        if not max_row_err <= POLICY.generator_tol * max(1.0, float(np.abs(data).max())):
            return None
        if self._n_strong is None:
            diagnostics = generator_diagnostics(q)
            self._n_strong = diagnostics.n_strong_components
            return diagnostics
        max_rate = float(off.max())
        min_rate = float(off.min())
        return GeneratorDiagnostics(
            n_states=self.n,
            nnz=int(off.size),
            max_rate=max_rate,
            min_rate=min_rate,
            stiffness_ratio=float(max_rate / min_rate),
            max_row_sum_error=max_row_err,
            n_strong_components=self._n_strong,
        )

    def steady_state(
        self,
        values: Mapping[str, float],
        x0: Union[None, str, np.ndarray] = "reference",
    ) -> np.ndarray:
        """Stationary vector at one parameter point (BFS state order)."""
        return self.steady_state_report(values, x0=x0).pi

    def availability(self, values: Mapping[str, float]) -> float:
        """Steady-state availability at one point (memoized, bounded).

        Requires the compile-time ``up`` mask.  The memo keys on the raw
        values of :attr:`parameters`, exactly like
        :meth:`CompiledCTMC.steady_state_cached`.
        """
        mask = self._up_mask()
        return self._memoized(
            self._point_key(values),
            lambda: float(self.steady_state(values)[mask].sum()),
            "sparse-memo",
        )

    def _up_mask(self) -> np.ndarray:
        if self.up is None:
            raise ModelDefinitionError(
                "no up-state mask was attached at compile time; rebuild with "
                "build_sparse_reachability(..., up=...) to evaluate availability"
            )
        return self.up

    # ------------------------------------------------------- batch/engine
    def __call__(self, assignment: Mapping[str, float]) -> float:
        unknown = sorted(set(assignment) - set(self.parameters))
        if unknown:
            raise ModelDefinitionError(
                f"unknown parameter(s) {unknown}; this compiled chain sweeps "
                f"{list(self.parameters)}"
            )
        values = dict(self._build_values)
        values.update(assignment)
        return self.availability(values)

    def evaluate_many(self, assignments: Sequence[Mapping[str, float]]) -> np.ndarray:
        out = np.empty(len(assignments))
        for i, assignment in enumerate(assignments):
            out[i] = self(assignment)
        return out

    # -------------------------------------------------------------- sweep
    def sweep(
        self,
        assignments: Sequence[Mapping[str, float]],
        order: Optional[str] = None,
        method: str = "gmres",
        preconditioner: str = "jacobi",
        tol: float = 1e-12,
        refresh_factor: float = 3.0,
        min_refresh_iterations: int = 30,
    ) -> np.ndarray:
        """Availability across a campaign with chained warm starts.

        The continuation fast path: per point, :meth:`fill` rewrites the
        CSR data buffer, the augmented system is reassembled by one
        gather, the Krylov solve warm-starts from the *previous point's*
        solution, and the preconditioner is reused — Jacobi refreshed
        in-place from the new diagonal; ILU re-factored only when a
        point's iteration count regresses past
        ``max(refresh_factor × rolling-best, min_refresh_iterations)``.

        Results match cold per-point solves within the solver tolerance
        (not bitwise — warm starts chain point to point, so use the
        engine path when evaluation-order independence matters).
        ``order="continuation"`` first reorders the points with
        :func:`continuation_order` (outputs are returned in the input
        order regardless).  Statistics of the run land on
        :attr:`last_sweep_stats`.
        """
        if order not in (None, "continuation"):
            raise ModelDefinitionError(
                f"unknown sweep order {order!r}; use None or 'continuation'"
            )
        if method not in ITERATIVE_METHODS:
            raise SolverError(
                f"unknown iterative method {method!r}; use 'gmres' or 'bicgstab'"
            )
        if preconditioner not in PRECONDITIONERS:
            raise SolverError(
                f"unknown preconditioner {preconditioner!r}; "
                "use 'jacobi', 'ilu' or 'none'"
            )
        mask = self._up_mask()
        stats = SweepStats()
        self.last_sweep_stats = stats
        perm = (
            continuation_order(assignments)
            if order == "continuation"
            else list(range(len(assignments)))
        )
        out = np.empty(len(assignments))
        if self.n <= POLICY.iterative_states_reachability:
            # Small chains: direct/GTH per point beats any warm start;
            # structure reuse is still the win (no re-BFS).
            for i in perm:
                out[i] = self(assignments[i])
                stats.points += 1
                stats.cold_solves += 1
            return out

        tracer = get_tracer()
        m_op = None
        jacobi_inv: Optional[np.ndarray] = None
        best_iters: Optional[int] = None
        prev_pi: Optional[np.ndarray] = None
        for i in perm:
            values = dict(self._build_values)
            values.update(assignments[i])
            t0 = perf_counter()
            data = self.fill(values)
            stats.fills += 1
            stats.fill_seconds += perf_counter() - t0
            a, b = self._assemble_system(data)
            t0 = perf_counter()
            if preconditioner != "none":
                reuse = m_op is not None
                if preconditioner == "jacobi":
                    if reuse:
                        self._jacobi(data, jacobi_inv)
                    else:
                        m_op, jacobi_inv = self._jacobi(data)
                elif not reuse:
                    m_op = build_preconditioner(a, "ilu")
                    best_iters = None
                if reuse:
                    stats.precond_reuses += 1
                else:
                    stats.precond_builds += 1
                if tracer.enabled:
                    event = "compile.precond.reuse" if reuse else "compile.precond.build"
                    tracer.metrics.counter(event, kind=preconditioner).inc()
            try:
                pi, iters = steady_state_iterative(
                    None,
                    method=method,
                    tol=tol,
                    preconditioner=m_op,
                    validated=True,
                    x0=prev_pi,
                    system=(a, b),
                )
            except (ConvergenceError, SolverError):
                # Robust fallback: re-validate and walk the full chain
                # cold.  The warm path resumes at the next point.
                stats.fallbacks += 1
                report = solve_steady_state(
                    self.generator(values),
                    iterative_limit=POLICY.iterative_states_reachability,
                )
                pi = report.pi
                iters = report.iterations
                if preconditioner == "ilu":
                    m_op = None  # force a refactor at the next point
            stats.solve_seconds += perf_counter() - t0
            stats.points += 1
            stats.iterations.append(iters)
            if prev_pi is None:
                stats.cold_solves += 1
            else:
                stats.warm_solves += 1
            prev_pi = pi
            out[i] = float(pi[mask].sum())
            if preconditioner == "ilu" and iters is not None and m_op is not None:
                if best_iters is None or iters < best_iters:
                    best_iters = iters
                threshold = max(
                    refresh_factor * best_iters, float(min_refresh_iterations)
                )
                if iters > threshold:
                    m_op = build_preconditioner(a, "ilu")
                    best_iters = None
                    stats.precond_refactors += 1
                    if tracer.enabled:
                        tracer.metrics.counter(
                            "compile.precond.refactor", kind="ilu"
                        ).inc()
        return out

    def describe(self) -> Dict[str, object]:
        """Advertised metadata (adds the structure-reuse facts)."""
        info = super().describe()
        info["nnz"] = self._nnz
        info["n_terms"] = len(self._terms)
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledSparseCTMC(n_states={self.n}, nnz={self._nnz}, "
            f"n_terms={len(self._terms)}, parameters={list(self.parameters)})"
        )


class CompiledNFVChain(CompiledEvaluator):
    """Compiled NFV service-chain evaluator (case study E37/E38).

    The engine-substitutable form of
    :func:`repro.casestudies.nfvchain.evaluate_availability`: per point
    it resolves the spec, fetches the count-signature-memoized
    :class:`CompiledSparseCTMC` structure from the case study's bounded
    cache, and refills rates — so a rate-only sweep never re-runs BFS.
    Above ``solver_limit`` states it switches to the analytic
    product-form oracle, exactly like the uncompiled evaluator.
    """

    #: mirror of ``evaluate_availability(solver_limit=...)``'s default
    solver_limit: Optional[int] = 200_000

    def __init__(self):
        from ..casestudies.nfvchain import NFVChainSpec

        self.parameters = tuple(NFVChainSpec.__dataclass_fields__)

    def evaluate_many(self, assignments: Sequence[Mapping[str, float]]) -> np.ndarray:
        from ..casestudies import nfvchain

        out = np.empty(len(assignments))
        for i, assignment in enumerate(assignments):
            out[i] = nfvchain.evaluate_availability(
                assignment, solver_limit=self.solver_limit
            )
        return out

    def size(self) -> Dict[str, int]:
        from ..casestudies import nfvchain

        return {
            "n_states": nfvchain.state_count(nfvchain.NFVChainSpec()),
            "n_chains": 1,
            "n_components": 0,
            "n_structure_functions": 0,
        }


#: Beyond this many points the O(m²) greedy tour is not worth the
#: ordering win; the original order is returned unchanged.
_CONTINUATION_LIMIT = 4_096


def continuation_order(
    assignments: Sequence[Mapping[str, float]],
    parameters: Optional[Sequence[str]] = None,
) -> List[int]:
    """Greedy nearest-neighbor visiting order over a campaign's points.

    Builds one row per assignment over ``parameters`` (default: the
    union of keys in first-use order), log-scales strictly-positive
    columns (rates sweep across decades — nearness should be relative,
    not absolute), normalizes each column to [0, 1], and walks a greedy
    nearest-neighbor tour from the first point.  Consecutive points end
    up adjacent in parameter space, which is what makes chained Krylov
    warm starts converge in a handful of iterations even when the
    campaign generator emitted an arbitrary grid order.

    Deterministic (ties resolve to the lowest index) and O(m²); inputs
    longer than 4 096 points are returned in their original order.
    """
    m = len(assignments)
    if m <= 2 or m > _CONTINUATION_LIMIT:
        return list(range(m))
    if parameters is None:
        keys: List[str] = []
        seen = set()
        for assignment in assignments:
            for key in assignment:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
    else:
        keys = list(parameters)
    if not keys:
        return list(range(m))
    x = np.zeros((m, len(keys)))  # (n_points, n_params) features, not n^2  # noqa: R007
    for j, key in enumerate(keys):
        col = np.array([float(a.get(key, 0.0)) for a in assignments])
        if np.all(col > 0.0):
            col = np.log10(col)
        lo, hi = float(col.min()), float(col.max())
        if hi > lo:
            x[:, j] = (col - lo) / (hi - lo)
    order = [0]
    remaining = np.ones(m, dtype=bool)
    remaining[0] = False
    current = 0
    for _ in range(m - 1):
        d2 = ((x - x[current]) ** 2).sum(axis=1)
        d2[~remaining] = np.inf
        current = int(np.argmin(d2))
        remaining[current] = False
        order.append(current)
    return order
