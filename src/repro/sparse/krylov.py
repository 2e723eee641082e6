"""Krylov and preconditioned-iterative solver kernels for large chains.

The dense/direct kernels in :mod:`repro.markov.solvers` stop scaling
long before the models the tutorial's practical workloads produce: GTH
is O(n³) on a dense copy, SuperLU factorizations fill in, and
uniformization stores ``Λ·t`` vectors.  The kernels here are the
large-state-space counterparts, all matrix-free or pattern-preserving:

* :func:`transient_krylov` — π(t) = π(0)·e^{Qt} by Krylov-subspace
  ``expm_multiply`` stepping (scipy's Al-Mohy/Higham implementation),
  whose cost scales with nnz rather than with ``Λ·t`` terms;
* :func:`steady_state_iterative` — πQ = 0 on the normalized-augmented
  system ``A x = e_n`` (``A`` is ``Qᵀ`` with its last row replaced by
  the normalization ``Σπ = 1``) via GMRES or BiCGSTAB with a Jacobi or
  ILU preconditioner.

Both are registered as named methods (``"krylov"`` / ``"expm_multiply"``,
``"gmres"`` / ``"bicgstab"``) in the :mod:`repro.markov.registry` solver
registries, so they participate in the standard front doors, fallback
chains, SolverReports and traces; ``method="auto"`` selects them above
the state-count thresholds documented in ``docs/SCALING.md``.

This module deliberately never materializes a dense n×n array (lint
rule R007 enforces it).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from ..exceptions import ConvergenceError, SolverError
from ..markov.registry import StageResult
from ..obs.trace import get_tracer

__all__ = [
    "augmented_system",
    "build_preconditioner",
    "steady_state_iterative",
    "transient_krylov",
]

#: Krylov methods accepted by :func:`steady_state_iterative`.
ITERATIVE_METHODS: Tuple[str, ...] = ("gmres", "bicgstab")
#: Preconditioner spellings accepted by :func:`steady_state_iterative`.
PRECONDITIONERS: Tuple[str, ...] = ("jacobi", "ilu", "none")


def augmented_system(
    generator: sparse.spmatrix,
) -> Tuple[sparse.csr_matrix, np.ndarray]:
    """The normalized-augmented steady-state system ``A x = b``.

    ``A`` is ``Qᵀ`` with the last balance equation replaced by the
    normalization row of ones, ``b = e_n`` — the same system
    :func:`repro.markov.solvers.steady_state_direct` factorizes, built
    here without a LIL round-trip so assembly stays O(nnz) on
    million-state chains.
    """
    q = sparse.csr_matrix(generator, dtype=float)
    n = q.shape[0]
    qt = q.transpose().tocsr()
    ones_row = sparse.csr_matrix(
        (np.ones(n), (np.zeros(n, dtype=np.int64), np.arange(n, dtype=np.int64))),
        shape=(1, n),
    )
    a = sparse.vstack([qt[: n - 1, :], ones_row], format="csr")
    b = np.zeros(n)
    b[n - 1] = 1.0
    return a, b


def build_preconditioner(
    a: sparse.csr_matrix, kind: str
) -> Optional[sparse_linalg.LinearOperator]:
    """Build the requested left preconditioner for the augmented system.

    Exposed so sweep kernels (:class:`repro.compile.sparse.CompiledSparseCTMC`)
    can build one operator and reuse it across points by passing it back
    to :func:`steady_state_iterative` as ``preconditioner=``.
    """
    if kind == "none":
        return None
    if kind == "jacobi":
        diag = a.diagonal().copy()
        # The augmented diagonal holds the (negative) exit rates plus the
        # final 1.0 normalization entry; a zero would mean an absorbing
        # state, which the irreducibility pre-flight already rejects —
        # guard anyway so the operator stays finite.
        diag[diag == 0.0] = 1.0
        inv = 1.0 / diag
        return sparse_linalg.LinearOperator(
            a.shape, matvec=lambda x: inv * x, dtype=float
        )
    if kind == "ilu":
        try:
            ilu = sparse_linalg.spilu(a.tocsc(), drop_tol=1e-5, fill_factor=10.0)
        except RuntimeError as exc:
            raise SolverError(f"ILU preconditioner factorization failed: {exc}") from exc
        return sparse_linalg.LinearOperator(a.shape, matvec=ilu.solve, dtype=float)
    raise SolverError(
        f"unknown preconditioner {kind!r}; use one of {PRECONDITIONERS}"
    )


def steady_state_iterative(
    generator: sparse.spmatrix,
    method: str = "gmres",
    tol: float = 1e-12,
    preconditioner: Union[str, sparse_linalg.LinearOperator, None] = "jacobi",
    restart: int = 100,
    max_iterations: int = 20_000,
    validated: bool = False,
    x0: Optional[np.ndarray] = None,
    system: Optional[Tuple[sparse.csr_matrix, np.ndarray]] = None,
) -> StageResult:
    """Steady state by a preconditioned Krylov solve of ``A x = e_n``.

    Parameters
    ----------
    generator:
        Sparse CTMC generator (rows sum to zero).
    method:
        ``"gmres"`` (restarted, default) or ``"bicgstab"``.
    tol:
        Relative residual target of the Krylov iteration.
    preconditioner:
        ``"jacobi"`` (default, O(n) setup), ``"ilu"`` (incomplete LU —
        stronger but with fill-in cost), ``"none"``, or a prebuilt
        :class:`~scipy.sparse.linalg.LinearOperator` (sweep kernels
        reuse one operator across many fills; see
        :func:`build_preconditioner`).
    restart / max_iterations:
        GMRES restart length and the overall iteration budget.
    validated:
        Skip the shared :func:`~repro.markov.solvers.validate_generator`
        pre-flight for callers that already ran it on this matrix.
    x0:
        Optional initial guess for the Krylov iteration — warm-starting
        from a neighboring sweep point's solution typically converges in
        a handful of iterations.  ``None`` (default) starts from zero,
        matching the historic behavior bit for bit.
    system:
        Optional pre-assembled ``(A, b)`` augmented system; sweep
        kernels that maintain ``A`` in place pass it to skip the
        per-call :func:`augmented_system` transpose.

    For warm-started solves the iteration count is also observed on
    the ``krylov.warm_iterations`` histogram.

    Returns
    -------
    A :class:`~repro.markov.registry.StageResult` ``(pi, iterations)``:
    the stationary probability vector (clipped non-negative,
    normalized) and the Krylov iterations spent — the front door copies
    the count onto :class:`~repro.markov.fallback.SolverAttempt`.  A
    solve that exhausts its budget raises
    :class:`~repro.exceptions.ConvergenceError` carrying the count.
    """
    if method not in ITERATIVE_METHODS:
        raise SolverError(f"unknown iterative method {method!r}; use 'gmres' or 'bicgstab'")
    if not validated:
        from ..markov.solvers import validate_generator

        validate_generator(generator)
    if system is not None:
        a, b = system
    else:
        a, b = augmented_system(generator)
    n = a.shape[0]
    if n == 1:
        return StageResult(np.ones(1), 0)
    if isinstance(preconditioner, str):
        m = build_preconditioner(a, preconditioner)
        precond_label = preconditioner
    else:
        m = preconditioner
        precond_label = "prebuilt" if m is not None else "none"
    iterations = 0

    def _count(_arg) -> None:
        nonlocal iterations
        iterations += 1

    tracer = get_tracer()
    with tracer.span(
        "solver.krylov_steady_state",
        method=method,
        preconditioner=precond_label,
        n_states=n,
        nnz=int(a.nnz),
        warm=x0 is not None,
    ) as span:
        if method == "gmres":
            # callback_type="pr_norm" fires once per inner iteration and
            # (unlike the "legacy" default) leaves the maxiter semantics
            # as restart cycles, so the iteration budget is unchanged.
            x, info = sparse_linalg.gmres(
                a, b, rtol=tol, atol=0.0, restart=restart,
                maxiter=max(1, max_iterations // max(1, restart)), M=m,
                x0=x0, callback=_count, callback_type="pr_norm",
            )
        else:
            x, info = sparse_linalg.bicgstab(
                a, b, rtol=tol, atol=0.0, maxiter=max_iterations, M=m,
                x0=x0, callback=_count,
            )
        span.set(info=int(info), iterations=iterations)
    if tracer.enabled and x0 is not None:
        tracer.metrics.histogram("krylov.warm_iterations").observe(float(iterations))
    if info < 0:  # pragma: no cover - scipy breakdown path
        raise SolverError(f"{method} broke down on the augmented system (info={info})")
    if info > 0:
        raise ConvergenceError(
            f"{method} did not reach tol={tol} within the iteration budget",
            iterations=iterations,
            residual=float(np.linalg.norm(a @ x - b)),
        )
    if not np.all(np.isfinite(x)):
        raise SolverError(f"{method} produced non-finite probabilities")
    pi = np.maximum(x, 0.0)
    total = pi.sum()
    if total <= 0.0:
        raise SolverError(f"{method} produced a zero vector")
    return StageResult(pi / total, iterations)


def transient_krylov(
    generator: sparse.spmatrix,
    initial: np.ndarray,
    times: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """Transient probabilities π(t) = π(0)·e^{Qt} by Krylov stepping.

    Steps through the sorted time points with scipy's ``expm_multiply``
    (Al-Mohy & Higham), reusing the previous point's vector as the next
    start: the work per step is a handful of sparse mat-vecs scaled by
    ``Λ·Δt``, never a stored ``Λ·t_max``-term series — which is exactly
    the regime (very large ``λt``, very many states) where
    uniformization's truncation point overflows its guard.

    ``tol`` is accepted for front-door signature compatibility;
    ``expm_multiply`` controls its own error to near machine precision.

    Returns an array of shape ``(len(times), n)`` in input time order.
    """
    times = np.asarray(times, dtype=float)
    if times.size and times.min() < 0:
        raise SolverError("times must be non-negative")
    q = sparse.csr_matrix(generator, dtype=float)
    qt = q.transpose().tocsr()
    n = qt.shape[0]
    p0 = np.asarray(initial, dtype=float)
    if p0.shape != (n,):
        raise SolverError(f"initial vector has shape {p0.shape}, expected ({n},)")
    out = np.empty((times.size, n))  # (n_times, n) result, not n^2  # noqa: R007
    if not times.size:
        return out
    order = np.argsort(times, kind="stable")
    tracer = get_tracer()
    with tracer.span(
        "solver.transient",
        method="krylov",
        n_states=n,
        n_times=int(times.size),
        horizon=float(times.max()),
    ):
        vec = p0
        prev_t = 0.0
        for idx in order:
            t = float(times[idx])
            dt = t - prev_t
            if dt > 0.0:
                vec = sparse_linalg.expm_multiply(qt * dt, vec)
                prev_t = t
            out[idx] = vec
    if not np.all(np.isfinite(out)):
        raise SolverError("Krylov transient stepping produced non-finite probabilities")
    return out
