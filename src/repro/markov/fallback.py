"""Robust steady-state solving: pre-flight checks + solver fallback chains.

The three steady-state kernels fail differently: GTH is stiffness-proof
but dense and O(n³); SuperLU is fast for large sparse chains but can
lose the solution on extreme stiffness; power iteration is memory-light
but converges slowly when the subdominant eigenvalue hugs 1.  A
dependability toolchain should not make the user learn this the hard
way, so :func:`solve_steady_state` pre-checks the generator
(:func:`generator_diagnostics` — row sums, irreducibility via strongly
connected components, stiffness ratio), picks an order, and walks the
chain GTH → sparse-direct → power with NaN/Inf and residual guards
between stages.  Every attempt is recorded in a structured
:class:`SolverReport`, so a production sweep can log *why* a point was
solved by the second-choice method instead of silently diverging.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from ..exceptions import ConvergenceError, ModelDefinitionError, ReproError, SolverError
from ..obs.trace import get_tracer
from .registry import POLICY, STEADY_STATE, SolverMethod, StageResult
from .solvers import validate_generator

__all__ = [
    "GeneratorDiagnostics",
    "generator_diagnostics",
    "SolverAttempt",
    "SolverReport",
    "solve_steady_state",
]

@dataclass(frozen=True)
class GeneratorDiagnostics:
    """Pre-flight facts about a CTMC generator.

    Attributes
    ----------
    n_states / nnz:
        Dimension and stored off-diagonal entry count.
    max_rate / min_rate:
        Largest and smallest positive off-diagonal rate.
    stiffness_ratio:
        ``max_rate / min_rate`` — availability models routinely span
        8–10 orders of magnitude (failures per 1e5 h vs repairs per
        hour), the regime where naive elimination loses precision and
        GTH must lead the fallback chain.
    max_row_sum_error:
        Largest absolute row sum (0 for an exact generator).
    n_strong_components:
        Number of strongly connected components of the transition
        structure; 1 means irreducible, the precondition for a unique
        stationary vector.
    """

    n_states: int
    nnz: int
    max_rate: float
    min_rate: float
    stiffness_ratio: float
    max_row_sum_error: float
    n_strong_components: int

    @property
    def irreducible(self) -> bool:
        """Whether the chain has a single strongly connected component."""
        return self.n_strong_components == 1


def generator_diagnostics(generator) -> GeneratorDiagnostics:
    """Compute :class:`GeneratorDiagnostics` for a dense or sparse generator.

    Purely observational — never raises on a defective generator (use
    :func:`~repro.markov.solvers.validate_generator` to enforce).
    """
    q = sparse.csr_matrix(generator, dtype=float)
    n = q.shape[0]
    off = q - sparse.diags(q.diagonal())
    off.eliminate_zeros()
    positive = off.data[off.data > 0.0]
    max_rate = float(positive.max()) if positive.size else 0.0
    min_rate = float(positive.min()) if positive.size else 0.0
    stiffness = max_rate / min_rate if min_rate > 0.0 else float("inf") if max_rate else 1.0
    row_sums = np.asarray(q.sum(axis=1)).ravel()
    max_row_err = float(np.abs(row_sums).max()) if row_sums.size else 0.0
    n_components = (
        int(csgraph.connected_components(off, directed=True, connection="strong")[0])
        if n
        else 0
    )
    return GeneratorDiagnostics(
        n_states=n,
        nnz=int(off.nnz),
        max_rate=max_rate,
        min_rate=min_rate,
        stiffness_ratio=float(stiffness),
        max_row_sum_error=max_row_err,
        n_strong_components=n_components,
    )


@dataclass(frozen=True)
class SolverAttempt:
    """One stage of a fallback chain: what ran and how it ended.

    Attributes
    ----------
    method:
        Stage name (``"gth"``, ``"direct"``, ``"power"`` or a custom
        stage key).
    success:
        Whether the stage produced a vector that passed the guards.
    duration:
        Wall-clock seconds spent in the stage.
    residual:
        Relative residual ``‖π Q‖∞ / max(1, max|Q|)`` of the produced
        vector (``NaN`` when the stage raised before producing one).
    error:
        ``"ExceptionType: message"`` for a failed stage, ``None`` on
        success.
    iterations:
        Iterations the stage spent, as its kernel returned them in a
        :class:`~repro.markov.registry.StageResult` or carried on the
        :class:`~repro.exceptions.ConvergenceError` it raised (``None``
        for direct stages and kernels that return a bare vector) — the
        number the preconditioner-refresh policy and tolerance tuning
        read.
    """

    method: str
    success: bool
    duration: float
    residual: float = float("nan")
    error: Optional[str] = None
    iterations: Optional[int] = None


class SolverReport:
    """Structured outcome of one :func:`solve_steady_state` call.

    Attributes
    ----------
    pi:
        The stationary vector (``None`` only while the report is under
        construction; a returned report always carries a solution).
    strategy:
        The strategy string the caller asked for.
    order:
        The stage order actually walked.
    route:
        The rule that chose ``order``: ``"order"`` (explicit order),
        ``"method"`` (one named method), or the ``auto`` row of
        :data:`~repro.markov.registry.POLICY` that applied —
        ``"iterative"``, ``"gth-first:small"``, ``"gth-first:stiff"``
        or ``"direct-first"``.
    attempts:
        One :class:`SolverAttempt` per stage tried, in order.
    diagnostics:
        The pre-flight :class:`GeneratorDiagnostics`.
    """

    def __init__(
        self,
        strategy: str,
        order: Tuple[str, ...],
        diagnostics: GeneratorDiagnostics,
        validation_seconds: float = 0.0,
        route: str = "order",
    ):
        self.strategy = strategy
        self.order = tuple(order)
        self.route = route
        self.diagnostics = diagnostics
        self.attempts: List[SolverAttempt] = []
        self.pi: Optional[np.ndarray] = None
        #: The generator is validated exactly once, up front; the stage
        #: solvers run with ``validated=True`` and skip the re-check.
        self.validations = 1
        self.validation_seconds = validation_seconds

    @property
    def ok(self) -> bool:
        """Whether a stage succeeded."""
        return self.pi is not None

    @property
    def method(self) -> Optional[str]:
        """Name of the winning stage (``None`` if every stage failed)."""
        for attempt in self.attempts:
            if attempt.success:
                return attempt.method
        return None

    @property
    def fallbacks_used(self) -> int:
        """How many stages failed before one succeeded."""
        return sum(1 for attempt in self.attempts if not attempt.success)

    @property
    def iterations(self) -> Optional[int]:
        """Krylov iterations of the winning stage (``None`` if unknown)."""
        for attempt in self.attempts:
            if attempt.success:
                return attempt.iterations
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of the solve — the :class:`~repro.obs.Observation`
        archival form attached to ``solver.steady_state`` trace spans
        (the stationary vector itself is not embedded)."""
        return {
            "strategy": self.strategy,
            "order": list(self.order),
            "route": self.route,
            "method": self.method,
            "ok": self.ok,
            "fallbacks_used": self.fallbacks_used,
            "validations": self.validations,
            "validation_seconds": self.validation_seconds,
            "diagnostics": asdict(self.diagnostics),
            "attempts": [asdict(attempt) for attempt in self.attempts],
        }

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline numbers (handy for table printing)."""
        winning = next((a for a in self.attempts if a.success), None)
        return {
            "n_states": float(self.diagnostics.n_states),
            "stiffness_ratio": self.diagnostics.stiffness_ratio,
            "n_attempts": float(len(self.attempts)),
            "fallbacks_used": float(self.fallbacks_used),
            "solve_time_s": float(sum(a.duration for a in self.attempts)),
            "residual": winning.residual if winning is not None else float("nan"),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        trail = " -> ".join(
            f"{a.method}{'✓' if a.success else '✗'}" for a in self.attempts
        )
        return (
            f"SolverReport({self.strategy!r}: {trail or 'no attempts'}, "
            f"n={self.diagnostics.n_states}, "
            f"stiffness {self.diagnostics.stiffness_ratio:.3g})"
        )


def _relative_residual(q: sparse.csr_matrix, pi: np.ndarray, max_rate: float) -> float:
    residual = np.abs(q.transpose().tocsr() @ pi)
    return float(residual.max()) / max(1.0, max_rate)


def solve_steady_state(
    generator,
    method: str = "auto",
    order: Optional[Sequence[str]] = None,
    iterative_limit: Optional[int] = None,
    stages: Optional[Mapping[str, Callable]] = None,
    diagnostics: str = "ignore",
    x0: Optional[np.ndarray] = None,
) -> SolverReport:
    """Steady-state vector via a diagnosed, guarded solver fallback chain.

    Parameters
    ----------
    generator:
        Dense or sparse CTMC generator.  Validated up front
        (:func:`~repro.markov.solvers.validate_generator`) and checked
        for irreducibility — a reducible chain has no unique stationary
        vector and raises
        :class:`~repro.exceptions.ModelDefinitionError` before any
        solver runs.
    method:
        ``"auto"`` (default) walks a fallback chain ordered by the
        diagnostics and the rows of :data:`~repro.markov.registry.POLICY`:
        GTH first for chains that are small (``gth_first_states``) or
        stiff (``gth_first_stiffness``), sparse-direct first for large
        well-conditioned chains, and preconditioned Krylov iteration
        (``gmres`` → ``bicgstab`` → ``power``) above ``iterative_limit``
        states, where factorizations stop being affordable.  The row
        that applied is ``report.route``.  Any single method name
        registered in :data:`repro.markov.registry.STEADY_STATE` — the built-ins
        ``"gth"`` / ``"direct"`` / ``"power"`` / ``"gmres"`` /
        ``"bicgstab"`` or a third-party backend added with
        ``register_method`` — runs as a one-stage chain (guards still
        applied).  Matches the ``method=`` kwarg of
        :meth:`repro.CTMC.steady_state`.
    order:
        Explicit stage order overriding the heuristic (implies
        ``"auto"`` semantics).
    iterative_limit:
        State count above which ``"auto"`` goes iterative; ``None``
        (default) reads ``POLICY.iterative_states`` (hand-built
        generators), chains built by reachability pass
        ``POLICY.iterative_states_reachability``.
    stages:
        Optional overrides ``{name: callable}`` for individual stages —
        the injection point used by the fault-injection harness
        (:class:`~repro.robust.FailingCallable`) to force and test
        fallbacks.  Overridden stages run exactly as given, without the
        registered method's pre-checks.
    diagnostics:
        ``"ignore"`` (default), ``"warn"`` or ``"strict"`` — run the
        full :mod:`repro.analyze` lint pass (steady-state query) before
        solving.  Independent of the hard pre-flight validation, which
        always runs.
    x0:
        Optional warm-start vector forwarded to stages whose registered
        :class:`~repro.markov.registry.SolverMethod` declares
        ``accepts_x0`` (the Krylov backends).  Direct stages ignore it,
        so a chain stays correct when a warm-started iterative stage
        falls back to GTH.  Stage iteration counts land on
        ``SolverAttempt.iterations`` either way.

    Every stage's vector must be finite, non-negative and normalizable
    with relative residual ``‖π Q‖∞ / max(1, max|Q|)`` at or below
    ``POLICY.stage_residual``; otherwise the next stage runs.

    Returns
    -------
    A :class:`SolverReport` whose ``pi`` holds the stationary vector and
    whose ``attempts`` record every stage tried.  Raises
    :class:`~repro.exceptions.SolverError` carrying the report as its
    ``report`` attribute when every stage fails.

    Examples
    --------
    >>> import numpy as np
    >>> q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    >>> report = solve_steady_state(q)
    >>> report.method
    'gth'
    >>> np.round(report.pi, 8).tolist()
    [0.66666667, 0.33333333]
    """
    q = sparse.csr_matrix(generator, dtype=float)
    if diagnostics != "ignore":
        from ..analyze import run_diagnostics

        run_diagnostics(q, diagnostics, query="steady_state", where="solve_steady_state")
    validation_start = time.perf_counter()
    validate_generator(q)
    validation_seconds = time.perf_counter() - validation_start
    return _walk_fallback_chain(
        q,
        generator_diagnostics(q),
        validation_seconds,
        method=method,
        order=order,
        iterative_limit=iterative_limit,
        stages=stages,
        x0=x0,
    )


def _walk_fallback_chain(
    q: sparse.csr_matrix,
    diagnostics: GeneratorDiagnostics,
    validation_seconds: float,
    method: str = "auto",
    order: Optional[Sequence[str]] = None,
    iterative_limit: Optional[int] = None,
    stages: Optional[Mapping[str, Callable]] = None,
    x0: Optional[np.ndarray] = None,
) -> SolverReport:
    """The body of :func:`solve_steady_state` after the pre-flight.

    ``q`` is a CSR generator that already passed
    :func:`~repro.markov.solvers.validate_generator` and ``diagnostics``
    its :func:`generator_diagnostics` — a compiled chain whose structure
    is frozen derives both without the full scans and enters here.
    Refuses empty and reducible chains, orders the stages and walks them
    with the finiteness, sign and residual guards.
    """
    if diagnostics.n_states == 0:
        raise ModelDefinitionError("generator has no states")
    if not diagnostics.irreducible and diagnostics.n_states > 1:
        raise ModelDefinitionError(
            f"chain is not irreducible ({diagnostics.n_strong_components} strongly "
            f"connected components); the stationary vector is not unique — solve "
            f"the recurrent class(es) separately"
        )

    known: Dict[str, Callable] = dict(STEADY_STATE.stages())
    if stages:
        # Explicit overrides (fault injection, experiments) replace the
        # whole stage including its pre-checks.
        known.update(stages)
    if order is not None:
        route = "order"
        chain = tuple(STEADY_STATE.resolve(name) if name not in known else name
                      for name in order)
    elif method == "auto":
        route, chain = POLICY.steady_state_route(
            diagnostics.n_states, diagnostics.stiffness_ratio, iterative_limit
        )
        # Methods whose supports-predicate rejects this chain drop out of
        # the auto ordering (an explicit method= still runs them).
        chain = tuple(
            name
            for name in chain
            if not (
                isinstance(known.get(name), SolverMethod)
                and known[name].supports is not None
                and not known[name].supports(diagnostics)
            )
        )
    elif STEADY_STATE.resolve(method) in known:
        route = "method"
        chain = (STEADY_STATE.resolve(method),)
    else:
        raise SolverError(
            f"unknown method {method!r}; use 'auto', one of "
            f"{sorted(known)}, or pass an explicit order"
        )
    unknown = [name for name in chain if name not in known]
    if unknown:
        raise SolverError(f"unknown solver stage(s) {unknown}; known: {sorted(known)}")

    tracer = get_tracer()
    report = SolverReport(method, chain, diagnostics, validation_seconds, route)
    with tracer.span(
        "solver.steady_state",
        method=method,
        route=route,
        n_states=diagnostics.n_states,
        stiffness_ratio=diagnostics.stiffness_ratio,
    ) as outer_span:
        for name in chain:
            start = time.perf_counter()
            stage = known[name]
            stage_kwargs = {}
            if (
                x0 is not None
                and isinstance(stage, SolverMethod)
                and stage.accepts_x0
            ):
                stage_kwargs["x0"] = x0
            iterations = None
            with tracer.span("solver.stage", method=name) as span:
                try:
                    pi = stage(q, **stage_kwargs)
                    if isinstance(pi, StageResult):
                        pi, iterations = pi
                    pi = np.asarray(pi, dtype=float)
                    if pi.shape != (diagnostics.n_states,):
                        raise SolverError(
                            f"stage returned shape {pi.shape}, expected ({diagnostics.n_states},)"
                        )
                    if not np.all(np.isfinite(pi)):
                        raise SolverError("stage produced non-finite probabilities")
                    if float(pi.min()) < -1e-12:
                        raise SolverError(
                            f"stage produced negative probability {pi.min():.3g}"
                        )
                    total = float(pi.sum())
                    if total <= 0.0:
                        raise SolverError("stage produced a zero vector")
                    pi = np.maximum(pi, 0.0) / total
                    residual = _relative_residual(q, pi, diagnostics.max_rate)
                    if residual > POLICY.stage_residual:
                        raise SolverError(
                            f"stage residual {residual:.3g} exceeds tolerance "
                            f"{POLICY.stage_residual:.3g}"
                        )
                except (
                    ReproError,
                    np.linalg.LinAlgError,
                    ValueError,
                    ArithmeticError,
                    RuntimeError,
                ) as exc:
                    if isinstance(exc, ConvergenceError):
                        iterations = exc.iterations
                    report.attempts.append(
                        SolverAttempt(
                            method=name,
                            success=False,
                            duration=time.perf_counter() - start,
                            error=f"{type(exc).__name__}: {exc}",
                            iterations=iterations,
                        )
                    )
                    span.set(success=False, error=f"{type(exc).__name__}: {exc}")
                    tracer.metrics.counter("solver.stage.failure", method=name).inc()
                    continue
                report.attempts.append(
                    SolverAttempt(
                        method=name,
                        success=True,
                        duration=time.perf_counter() - start,
                        residual=residual,
                        iterations=iterations,
                    )
                )
                span.set(success=True, residual=residual)
                tracer.metrics.counter("solver.stage.success", method=name).inc()
                if report.fallbacks_used:
                    tracer.metrics.counter("solver.fallbacks").inc(report.fallbacks_used)
            if report.attempts[-1].success:
                report.pi = pi
                outer_span.observe(report, key="solver_report")
                return report

    trail = "; ".join(f"{a.method}: {a.error}" for a in report.attempts)
    error = SolverError(
        f"every steady-state stage failed for the {diagnostics.n_states}-state "
        f"chain (stiffness {diagnostics.stiffness_ratio:.3g}): {trail}"
    )
    error.report = report
    raise error
