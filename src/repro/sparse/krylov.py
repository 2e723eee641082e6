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
  ILU preconditioner.  GMRES is the module's own kernel (:func:`_gmres`,
  scipy's restarted left-preconditioned algorithm on BLAS-1 plumbing);
  BiCGSTAB is scipy's.

Both are registered as named methods (``"krylov"`` / ``"expm_multiply"``,
``"gmres"`` / ``"bicgstab"``) in the :mod:`repro.markov.registry` solver
registries, so they participate in the standard front doors, fallback
chains, SolverReports and traces; ``method="auto"`` selects them above
the state-count thresholds documented in ``docs/SCALING.md``.

This module deliberately never materializes a dense n×n array (lint
rule R007 enforces it).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.linalg.blas import daxpy, ddot
from scipy.linalg.lapack import dlartg
from scipy.sparse import linalg as sparse_linalg

from ..exceptions import ConvergenceError, SolverError
from ..markov.registry import POLICY, StageResult
from ..obs.trace import get_tracer

__all__ = [
    "JacobiOperator",
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


class JacobiOperator(sparse_linalg.LinearOperator):
    """The Jacobi left preconditioner ``x ↦ inv ⊙ x``.

    ``inv`` is held, not copied: sweep kernels refresh it in place
    between points.  The GMRES kernel applies it as one in-place
    multiply instead of a ``LinearOperator`` dispatch.
    """

    def __init__(self, inv: np.ndarray):
        super().__init__(dtype=float, shape=(inv.size, inv.size))
        self.inv = inv

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self.inv * x.reshape(-1)


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
        return JacobiOperator(1.0 / diag)
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
    if restart < 1:
        raise SolverError(f"GMRES restart length must be at least 1, got {restart}")
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
            x, iterations, outcome = _gmres(a, b, m, x0, tol, restart, max_iterations)
        else:
            x, info = sparse_linalg.bicgstab(
                a, b, rtol=tol, atol=0.0, maxiter=max_iterations, M=m,
                x0=x0, callback=_count,
            )
            outcome = "converged" if info == 0 else "budget" if info > 0 else "breakdown"
        span.set(outcome=outcome, iterations=iterations)
    if tracer.enabled and x0 is not None:
        tracer.metrics.histogram("krylov.warm_iterations").observe(float(iterations))
    if outcome == "breakdown" and method == "bicgstab":  # pragma: no cover
        raise SolverError(f"{method} broke down on the augmented system")
    if outcome != "converged":
        reason = {
            "budget": f"did not reach tol={tol} within the iteration budget",
            "stagnated": "stagnated: a full restart cycle cut the true residual by less "
            f"than {POLICY.gmres_min_cycle_reduction:.0%}",
            "breakdown": f"broke down before reaching tol={tol}",
        }[outcome]
        raise ConvergenceError(
            f"{method} {reason} after {iterations} iterations",
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


def _gmres(
    a: sparse.csr_matrix,
    b: np.ndarray,
    m: Optional[sparse_linalg.LinearOperator],
    x0: Optional[np.ndarray],
    tol: float,
    restart: int,
    max_iterations: int,
) -> Tuple[np.ndarray, int, str]:
    """Restarted, left-preconditioned GMRES: ``(x, inner iterations, outcome)``.

    scipy's ``sparse.linalg.gmres`` algorithm step for step — the
    restart and exit tests, the gh-8400 control of the inner tolerance
    ``ptol`` on the preconditioned residual, ``max_iterations //
    restart`` restart cycles — with the arithmetic moved off the Python
    object layer: modified Gram–Schmidt runs in place on the contiguous
    basis rows through BLAS ``ddot``/``daxpy``; the Hessenberg column,
    the Givens rotations and the back-substitution are Python floats;
    a :class:`JacobiOperator` is one in-place multiply.  The result
    differs from scipy's by rounding only (``daxpy`` may fuse the
    multiply-add).

    One rule is new: a full restart cycle (not ended early by the inner
    test) that cuts the true residual ``‖b − A x‖`` by less than
    ``POLICY.gmres_min_cycle_reduction`` ends the solve as
    ``"stagnated"`` instead of running out the budget.
    The outcome is ``"converged"``, ``"budget"``, ``"stagnated"`` or
    ``"breakdown"`` (an exact-solution breakdown whose true residual
    still misses ``tol``).
    """
    n = b.size
    inv = m.inv if isinstance(m, JacobiOperator) else None

    def psolve(vec: np.ndarray) -> np.ndarray:
        if inv is not None:
            return inv * vec
        return vec if m is None else m.matvec(vec)

    bnrm2 = float(np.linalg.norm(b))
    atol = tol * bnrm2
    eps = float(np.finfo(float).eps)
    max_cycles = max(1, max_iterations // max(1, restart))
    restart = min(restart, n)
    stall = 1.0 - POLICY.gmres_min_cycle_reduction
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - a @ x if x.any() else b.copy()
    rnorm = float(np.linalg.norm(r))
    if rnorm < atol:
        return x, 0, "converged"
    ptol_max_factor = 1.0
    ptol = float(np.linalg.norm(psolve(b))) * min(ptol_max_factor, atol / bnrm2)
    # The Krylov basis, one contiguous row per vector: (restart + 1) × n,
    # allocated per call so no solve pins a large workspace.
    v = np.empty((restart + 1, n))  # noqa: R007
    rows = list(v)
    inner = 0
    for _cycle in range(max_cycles):
        v[0] = psolve(r)
        beta = float(np.linalg.norm(v[0]))
        v[0] *= 1.0 / beta
        s_rhs = [beta] + [0.0] * restart
        cols: List[List[float]] = []
        cos: List[float] = []
        sin: List[float] = []
        breakdown = False
        presid = 0.0
        for col in range(restart):
            w = a @ rows[col]
            if inv is not None:
                np.multiply(w, inv, out=w)
            elif m is not None:
                w = m.matvec(w)
            # Modified Gram–Schmidt, in place on w.
            h0 = math.sqrt(ddot(w, w))
            h = [0.0] * (col + 2)
            for k in range(col + 1):
                hk = ddot(rows[k], w)
                h[k] = hk
                daxpy(rows[k], w, n, -hk)
            h1 = math.sqrt(ddot(w, w))
            if h1 <= eps * h0:  # exact-solution indicator
                breakdown = True
            else:
                h[col + 1] = h1
                np.multiply(w, 1.0 / h1, out=rows[col + 1])
            for k in range(col):
                c, s = cos[k], sin[k]
                h[k], h[k + 1] = c * h[k] + s * h[k + 1], -s * h[k] + c * h[k + 1]
            c, s, mag = dlartg(h[col], h[col + 1])
            cos.append(c)
            sin.append(s)
            h[col], h[col + 1] = mag, 0.0
            cols.append(h)
            tail = -s * s_rhs[col]
            s_rhs[col], s_rhs[col + 1] = c * s_rhs[col], tail
            presid = abs(tail)
            inner += 1
            if presid <= ptol or breakdown:
                break
        # Back-substitution on the triangular (col + 1) system, with
        # scipy's pseudo-solve of a singular last pivot.
        if cols[col][col] == 0.0:
            s_rhs[col] = 0.0
        y = s_rhs[: col + 1]
        for k in range(col, 0, -1):
            if y[k] != 0.0:
                y[k] /= cols[k][k]
                yk = y[k]
                hk_col = cols[k]
                for i in range(k):
                    y[i] -= yk * hk_col[i]
        if y[0] != 0.0:
            y[0] /= cols[0][0]
        x += np.array(y) @ v[: col + 1]
        r = b - a @ x
        rnorm_prev, rnorm = rnorm, float(np.linalg.norm(r))
        if rnorm <= atol:
            return x, inner, "converged"
        if breakdown:
            return x, inner, "breakdown"
        if presid <= ptol:
            # The inner test passed but the true residual did not:
            # tighten ptol and go again (not a stagnated cycle).
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        elif rnorm > stall * rnorm_prev:
            return x, inner, "stagnated"
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, inner, "budget"


def transient_krylov(
    generator: sparse.spmatrix,
    initial: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Transient probabilities π(t) = π(0)·e^{Qt} by Krylov stepping.

    Steps through the sorted time points with scipy's ``expm_multiply``
    (Al-Mohy & Higham), reusing the previous point's vector as the next
    start: the work per step is a handful of sparse mat-vecs scaled by
    ``Λ·Δt``, never a stored ``Λ·t_max``-term series — which is exactly
    the regime (very large ``λt``, very many states) where
    uniformization's truncation point overflows its guard.

    There is no tolerance knob: ``expm_multiply`` controls its own
    error to near machine precision.

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
