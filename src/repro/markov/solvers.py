"""Numerical kernels for Markov chain analysis.

Three steady-state solvers (the E24 ablation set) and the uniformization
transient kernel:

* **GTH elimination** — the Grassmann–Taksar–Heyman variant of Gaussian
  elimination.  It never subtracts (all quantities stay non-negative), so
  it is backward stable even on stiff generators where rates span ten
  orders of magnitude — exactly the situation in availability models
  (failures per 10^5 h vs repairs per hour).  Default.
* **Sparse direct** — solve ``Q^T π = 0`` with one equation replaced by
  normalization, via SuperLU.  Fast for large sparse chains, but can lose
  accuracy on stiff problems.
* **Power iteration** — on the uniformized DTMC.  Matrix-free and memory
  light; linear convergence governed by the subdominant eigenvalue.

The transient kernel implements Jensen's uniformization with strict
truncation-error control, plus the cumulative (integrated) variant needed
for expected accumulated reward and interval availability.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from ..exceptions import ConvergenceError, ModelDefinitionError, SolverError
from ..obs.trace import get_tracer
from .._kernels import POLICY, gth_eliminate

__all__ = [
    "validate_generator",
    "gth_solve",
    "steady_state_direct",
    "steady_state_power",
    "uniformized_matrix",
    "poisson_truncation_point",
    "solve_transient",
    "transient_uniformization",
    "transient_ode",
    "cumulative_uniformization",
]

#: Default truncation-error bound and overflow guard of the
#: uniformization kernels and of the transient front doors built on them
#: (``solve_transient``, ``CTMC.transient``, ``CTMC.cumulative_transient``).
_UNIFORMIZATION_TOL = 1e-10
_UNIFORMIZATION_MAX_TERMS = 100_000


def validate_generator(generator, tol: float = POLICY.generator_tol) -> int:
    """Check that a matrix is a CTMC generator; return its dimension.

    Shared pre-flight for every steady-state solver: ``generator`` must
    be square with finite entries, non-negative off-diagonal rates, and
    rows summing to zero — all within ``tol`` scaled by the largest
    absolute rate.  Raises
    :class:`~repro.exceptions.ModelDefinitionError` naming the worst
    offending row, which turns the solvers' downstream garbage
    (singular factorizations, non-converging iterations, negative
    "probabilities") into one early, diagnosable failure.

    Accepts dense arrays and scipy sparse matrices.  Also valid for the
    ``P - I`` matrices the DTMC stationary solver feeds to GTH.

    The checks themselves live in
    :func:`repro.analyze.markov.generator_defects` — the same scan the
    :func:`repro.analyze.analyze` lint runs — so the solvers and the
    static analyzer accept/reject bit-identically by construction; this
    wrapper raises the first defect's message.
    """
    if tol < 0.0:
        raise ModelDefinitionError(f"tolerance must be >= 0, got {tol}")
    from ..analyze.markov import generator_defects

    n, defects = generator_defects(generator, tol)
    if defects:
        raise ModelDefinitionError(defects[0].message)
    return n


def gth_solve(generator: np.ndarray, validated: bool = False) -> np.ndarray:
    """Steady-state vector of an irreducible CTMC by GTH elimination.

    Parameters
    ----------
    generator:
        Dense infinitesimal generator ``Q`` (rows sum to zero).

    Returns
    -------
    The stationary probability vector π with ``π Q = 0`` and ``Σ π = 1``.

    Notes
    -----
    Runs in O(n³) time on a dense copy; intended for chains up to a few
    thousand states.  The algorithm uses only additions, multiplications
    and divisions of non-negative numbers, which is what makes it immune
    to the catastrophic cancellation that plagues naive elimination on
    stiff availability models.

    ``validated=True`` skips the :func:`validate_generator` pre-flight —
    for callers (the fallback chain, compiled models) that have already
    validated the exact same matrix.

    The elimination itself is :func:`repro._kernels.gth_eliminate`, the
    kernel compiled models also run over stacks of chains.
    """
    a = np.array(generator, dtype=float)
    if not validated:
        validate_generator(a)
    return gth_eliminate(a)


def steady_state_direct(
    generator: sparse.spmatrix, validated: bool = False
) -> np.ndarray:
    """Steady state by sparse LU on ``Q^T π = 0`` with a normalization row.

    ``validated=True`` skips the shared pre-flight check for callers that
    have already run :func:`validate_generator` on this matrix.
    """
    q = sparse.csr_matrix(generator, dtype=float)
    n = q.shape[0] if validated else validate_generator(q)
    a = q.transpose().tolil()
    a[n - 1, :] = 1.0  # replace last balance equation with Σ π = 1
    b = np.zeros(n)
    b[n - 1] = 1.0
    try:
        pi = sparse_linalg.spsolve(sparse.csc_matrix(a), b)
    except RuntimeError as exc:  # pragma: no cover - SuperLU failure path
        raise SolverError(f"sparse direct solve failed: {exc}") from exc
    if not np.all(np.isfinite(pi)):
        raise SolverError("sparse direct solve produced non-finite probabilities")
    pi = np.maximum(pi, 0.0)
    total = pi.sum()
    if total <= 0:
        raise SolverError("sparse direct solve produced a zero vector")
    return pi / total


def uniformized_matrix(
    generator: sparse.spmatrix, rate_multiplier: float = 1.02
) -> Tuple[sparse.csr_matrix, float]:
    """Uniformized DTMC ``P = I + Q/Λ`` and the uniformization rate Λ.

    Λ is ``rate_multiplier`` times the largest exit rate, which keeps the
    diagonal of ``P`` strictly positive and makes the chain aperiodic —
    required for power iteration and harmless for transient analysis.
    """
    q = sparse.csr_matrix(generator, dtype=float)
    diag = -q.diagonal()
    max_rate = float(diag.max()) if diag.size else 0.0
    if max_rate <= 0.0:
        # All states absorbing: P is the identity.
        return sparse.identity(q.shape[0], format="csr"), 1.0
    lam = max_rate * float(rate_multiplier)
    p = sparse.identity(q.shape[0], format="csr") + q / lam
    return p.tocsr(), lam


def steady_state_power(
    generator: sparse.spmatrix,
    tol: float = 1e-12,
    max_iterations: int = 500_000,
    validated: bool = False,
) -> np.ndarray:
    """Steady state by power iteration on the uniformized chain.

    ``validated=True`` skips the shared pre-flight check for callers that
    have already run :func:`validate_generator` on this matrix.
    """
    if not validated:
        validate_generator(generator)
    p, _ = uniformized_matrix(generator)
    n = p.shape[0]
    pi = np.full(n, 1.0 / n)
    pt = p.transpose().tocsr()
    for iteration in range(1, max_iterations + 1):
        new = pt @ pi
        new_sum = new.sum()
        if new_sum <= 0:
            raise SolverError("power iteration collapsed to the zero vector")
        new /= new_sum
        delta = float(np.abs(new - pi).max())
        pi = new
        if delta < tol:
            return pi
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iterations} iterations",
        iterations=max_iterations,
        residual=delta,
    )


def poisson_truncation_point(lam_t: float, tol: float, limit: Optional[int] = None) -> int:
    """Smallest K with Poisson(λt) tail mass beyond K below ``tol``.

    ``limit`` bounds the walk (default ``λt + 12·√λt + 50``, generously
    past any realistic truncation point).  Hitting the bound with more
    than ``tol`` tail mass still missing raises
    :class:`~repro.exceptions.SolverError` instead of silently
    returning a too-small K — a truncated uniformization sum that
    *looks* converged but is not would corrupt every downstream
    transient measure.  In practice the error fires only for
    tolerances below floating-point resolution or a caller-supplied
    ``limit`` that is genuinely too small.
    """
    if lam_t < 0:
        raise SolverError(f"λt must be non-negative, got {lam_t}")
    if lam_t == 0.0:
        return 0
    if limit is None:
        limit = int(lam_t + 12.0 * math.sqrt(lam_t) + 50.0)
    # Walk the Poisson pmf in log space until the accumulated mass
    # reaches 1 - tol.  Kahan-compensated summation keeps the rounding
    # error of the O(λt)-term sum near one ulp, so the stop condition
    # stays meaningful for tolerances down to ~1e-15.
    log_pmf = -lam_t  # log P[N=0]
    cumulative = math.exp(log_pmf)
    compensation = 0.0
    k = 0
    while cumulative < 1.0 - tol:
        if k + 1.0 > lam_t:
            # Geometric tail bound: beyond the mode the pmf decays faster
            # than ratio^j with ratio = λt/(k+1), so the true remaining
            # mass is below pmf(k)·ratio/(1-ratio).  This second stop
            # criterion keeps the walk finite when accumulated rounding
            # error pins `cumulative` just below 1-tol for tolerances
            # near machine epsilon.
            ratio = lam_t / (k + 1.0)
            if math.exp(log_pmf) * ratio / (1.0 - ratio) < tol:
                return k
        if k >= limit:
            raise SolverError(
                f"Poisson truncation for λt={lam_t:.6g} did not reach mass "
                f"1-tol within {limit} terms (accumulated {cumulative:.17g}, "
                f"tol={tol:.3g}); raise `limit` or loosen `tol` — a silently "
                f"truncated sum would lose more than the requested accuracy"
            )
        k += 1
        log_pmf += math.log(lam_t / k)
        term = math.exp(log_pmf) - compensation
        total = cumulative + term
        compensation = (total - cumulative) - term
        cumulative = total
    return k


@lru_cache(maxsize=4096)
def _truncation_point_cached(lam_t: float, tol: float) -> int:
    """Memoized :func:`poisson_truncation_point` on ``(λt, tol)``.

    Sweeps over non-rate parameters (coverage factors, structure
    probabilities) solve transients with identical ``λt`` at every point;
    the truncation walk is O(λt) and pure, so caching it turns the
    repeated work into a dict hit.  Failures (SolverError at the limit)
    are never cached by ``lru_cache``, preserving the raise-every-time
    contract, and the default ``limit`` is derived from ``lam_t`` so the
    two-argument key is complete.
    """
    return poisson_truncation_point(lam_t, tol)


def transient_ode(
    generator: sparse.spmatrix,
    initial: np.ndarray,
    times: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """Transient probabilities by stiff ODE integration (LSODA).

    The E09 ablation partner of :func:`transient_uniformization` and its
    overflow fallback for huge ``Λt``: the Kolmogorov forward equations
    ``dπ/dt = π Q`` integrated with adaptive step control, whose cost
    scales with stiffness rather than with ``Λ·t`` terms.

    Returns an array of shape ``(len(times), n)``; ``times`` may be in
    any order (rows follow the input order).
    """
    times = np.asarray(times, dtype=float)
    if times.size and times.min() < 0:
        raise SolverError("times must be non-negative")
    qt = sparse.csr_matrix(generator, dtype=float).transpose().tocsr()
    p0 = np.asarray(initial, dtype=float)
    if p0.shape != (qt.shape[0],):
        raise SolverError(
            f"initial vector has shape {p0.shape}, expected ({qt.shape[0]},)"
        )

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        return qt @ y

    horizon = float(times.max()) if times.size else 0.0
    if horizon == 0.0:
        return np.tile(p0, (times.size, 1))
    with get_tracer().span(
        "solver.transient",
        method="ode",
        n_states=qt.shape[0],
        n_times=int(times.size),
        horizon=horizon,
    ):
        from scipy import integrate as scipy_integrate

        solution = scipy_integrate.solve_ivp(
            rhs,
            (0.0, horizon),
            p0,
            t_eval=np.sort(times),
            method="LSODA",
            rtol=max(tol, 1e-12),
            atol=max(tol * 1e-2, 1e-14),
        )
        if not solution.success:  # pragma: no cover - scipy failure path
            raise SolverError(f"ODE transient solver failed: {solution.message}")
    order = np.argsort(times)
    out = np.empty((times.size, p0.size))
    out[order] = solution.y.T
    return out


def _uniformization_overflow_fallback(
    generator,
    initial: np.ndarray,
    times: np.ndarray,
    tol: float,
    n: int,
    tracer,
    truncation_point: Optional[int],
) -> np.ndarray:
    """Escape hatch when the uniformization series is too long to store.

    Krylov ``expm_multiply`` stepping first — it handles very large
    ``Λt`` with bounded memory and keeps near-machine accuracy — then
    stiff ODE integration if the Krylov kernel itself fails.
    """
    attrs = {"method": "uniformization", "n_states": n}
    if truncation_point is not None:
        attrs["truncation_point"] = truncation_point
    try:
        from ..sparse.krylov import transient_krylov

        with tracer.span("solver.transient", fallback="krylov", **attrs):
            return transient_krylov(generator, initial, times)
    except SolverError:
        with tracer.span("solver.transient", fallback="ode", **attrs):
            return transient_ode(generator, initial, times, tol)


def transient_uniformization(
    generator: sparse.spmatrix,
    initial: np.ndarray,
    times: np.ndarray,
    tol: float = _UNIFORMIZATION_TOL,
    max_terms: int = _UNIFORMIZATION_MAX_TERMS,
) -> np.ndarray:
    """Transient state probabilities π(t) = π(0) e^{Qt} by uniformization.

    Parameters
    ----------
    generator:
        CTMC generator (rows sum to zero; absorbing rows all zero).
    initial:
        Initial probability vector.
    times:
        Non-decreasing array of evaluation times.
    tol:
        Bound on the truncation error of each output vector (1-norm).
    max_terms:
        Overflow guard.  Uniformization needs ~``Λ·t_max`` matrix-vector
        products and as many stored vectors; when the truncation point
        exceeds this bound — very stiff generator, very long horizon —
        the computation silently switches to Krylov ``expm_multiply``
        stepping (:func:`repro.sparse.krylov.transient_krylov`, whose
        cost does not store ``Λt`` vectors), with stiff ODE integration
        (:func:`transient_ode`) as the final fallback.

    Returns
    -------
    Array of shape ``(len(times), n)``.
    """
    times = np.asarray(times, dtype=float)
    if times.size and times.min() < 0:
        raise SolverError("times must be non-negative")
    return _transient_uniformized(
        generator,
        _uniformized_transpose(generator),
        [np.asarray(initial, dtype=float)],
        times,
        tol,
        max_terms,
    )


def _uniformized_transpose(generator: sparse.spmatrix) -> Tuple[sparse.csr_matrix, float]:
    """``(Pᵀ, Λ)`` of :func:`uniformized_matrix`: what both uniformization
    series step with, so callers solving one generator from several
    initial vectors build it once."""
    p, lam = uniformized_matrix(generator)
    return p.transpose().tocsr(), lam


def _power_sequence(pt: sparse.csr_matrix, vectors: List[np.ndarray], k_max: int) -> None:
    """Extend ``vectors = [v, vP, vP², ...]`` in place through ``vP^k_max``.

    Both uniformization series combine the same sequence with different
    weights, so a caller running both from one initial vector passes
    one list and each matrix-vector product happens once.
    """
    vec = vectors[-1]
    for _ in range(len(vectors) - 1, k_max):
        vec = pt @ vec
        vectors.append(vec)


def _uniformized_passes(
    generator: sparse.spmatrix,
    uniformized: Tuple[sparse.csr_matrix, float],
    initial: np.ndarray,
    times: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(π(t), L(t))`` from one initial vector on a prebuilt ``(Pᵀ, Λ)``.

    Bit-identical to :func:`transient_uniformization` and
    :func:`cumulative_uniformization` at their default tolerance and
    term guard, for callers that solve one generator from several
    initial vectors: the uniformized matrix is built once by the caller
    and both passes combine one power sequence.  ``times`` is an already
    validated float array.
    """
    vectors = [initial]
    probs = _transient_uniformized(
        generator, uniformized, vectors, times, _UNIFORMIZATION_TOL, _UNIFORMIZATION_MAX_TERMS
    )
    return probs, _cumulative_uniformized(uniformized, vectors, times, _UNIFORMIZATION_TOL)


def _transient_uniformized(
    generator: sparse.spmatrix,
    uniformized: Tuple[sparse.csr_matrix, float],
    vectors: List[np.ndarray],
    times: np.ndarray,
    tol: float,
    max_terms: int,
) -> np.ndarray:
    """:func:`transient_uniformization` on a prebuilt ``(Pᵀ, Λ)`` and
    power sequence ``vectors`` (at least the initial vector; extended
    in place).  ``times`` is an already validated float array."""
    pt, lam = uniformized
    n = pt.shape[0]
    initial = vectors[0]
    if initial.shape != (n,):
        raise SolverError(f"initial vector has shape {initial.shape}, expected ({n},)")

    out = np.empty((times.size, n))
    max_time = float(times.max()) if times.size else 0.0
    tracer = get_tracer()
    try:
        k_max = _truncation_point_cached(lam * max_time, tol)
    except SolverError:
        # Truncation point unreachable (tol below float resolution for
        # this Λt): hand off to a kernel whose cost is Λt-independent.
        return _uniformization_overflow_fallback(
            generator, initial, times, tol, n, tracer, truncation_point=None
        )
    if k_max > max_terms:
        return _uniformization_overflow_fallback(
            generator, initial, times, tol, n, tracer, truncation_point=k_max
        )

    with tracer.span(
        "solver.transient",
        method="uniformization",
        n_states=n,
        n_times=int(times.size),
        truncation_point=k_max,
        uniformization_rate=float(lam),
    ):
        # Precompute the Krylov-style sequence v_k = initial P^k once,
        # then combine with each time's Poisson weights.
        _power_sequence(pt, vectors, k_max)

        for idx, t in enumerate(times):
            lam_t = lam * float(t)
            if lam_t == 0.0:
                out[idx] = initial
                continue
            k_t = _truncation_point_cached(lam_t, tol)
            acc = np.zeros(n)
            log_w = -lam_t
            for k in range(0, k_t + 1):
                weight = math.exp(log_w)
                if weight > 0.0:
                    acc += weight * vectors[min(k, k_max)]
                log_w += math.log(lam_t) - math.log(k + 1)
            out[idx] = acc
    return out


def solve_transient(
    generator: sparse.spmatrix,
    initial: np.ndarray,
    times: np.ndarray,
    method: str = "auto",
    tol: float = _UNIFORMIZATION_TOL,
    max_terms: int = _UNIFORMIZATION_MAX_TERMS,
    diagnostics: str = "ignore",
) -> np.ndarray:
    """Unified front door for transient analysis π(t) = π(0) e^{Qt}.

    The transient counterpart of
    :func:`repro.markov.fallback.solve_steady_state`: pick a kernel by
    name instead of importing it.

    Parameters
    ----------
    method:
        ``"auto"`` (default) — uniformization for chains up to
        ``POLICY.transient_krylov_states`` (50 000) states (with its
        built-in Krylov/ODE escape hatch for huge ``Λt``), Krylov
        ``expm_multiply`` stepping above; or any name
        registered in :data:`repro.markov.registry.TRANSIENT` —
        ``"uniformization"``, ``"ode"``, ``"krylov"`` (alias
        ``"expm_multiply"``) or a third-party backend added with
        ``register_method``.
    tol:
        Truncation-error bound (uniformization) or integration tolerance
        (ODE).  The Krylov route ignores it: its error is
        ``expm_multiply``'s own, near machine precision.
    diagnostics:
        ``"ignore"`` (default), ``"warn"`` or ``"strict"`` — run the
        :mod:`repro.analyze` lint pass (transient query) before solving.

    Returns
    -------
    Array of shape ``(len(times), n)``.
    """
    if diagnostics != "ignore":
        from ..analyze import run_diagnostics

        run_diagnostics(
            generator, diagnostics, query="transient", where="solve_transient"
        )
    from .registry import TRANSIENT

    if method == "auto":
        n = generator.shape[0]
        method = "krylov" if n > POLICY.transient_krylov_states else "uniformization"
    try:
        kernel = TRANSIENT.get(method)
    except SolverError:
        raise ModelDefinitionError(
            f"unknown transient method {method!r}; use 'auto' or one of "
            f"{sorted(TRANSIENT.names())}"
        ) from None
    return kernel(generator, initial, times, tol=tol, max_terms=max_terms)


def cumulative_uniformization(
    generator: sparse.spmatrix,
    initial: np.ndarray,
    times: np.ndarray,
    tol: float = _UNIFORMIZATION_TOL,
) -> np.ndarray:
    """Integrated transient probabilities ``L(t) = ∫_0^t π(u) du``.

    Uses the standard uniformization identity::

        L(t) = (1/Λ) Σ_k  [1 - Σ_{j<=k} pois(j; Λt)] · π(0) P^k

    Truncation is controlled so the 1-norm error of ``L(t)`` is below
    ``tol * t``.

    Returns an array of shape ``(len(times), n)``; row sums equal ``t``.
    """
    times = np.asarray(times, dtype=float)
    if times.size and times.min() < 0:
        raise SolverError("times must be non-negative")
    return _cumulative_uniformized(
        _uniformized_transpose(generator), [np.asarray(initial, dtype=float)], times, tol
    )


def _cumulative_uniformized(
    uniformized: Tuple[sparse.csr_matrix, float],
    vectors: List[np.ndarray],
    times: np.ndarray,
    tol: float,
) -> np.ndarray:
    """:func:`cumulative_uniformization` on a prebuilt ``(Pᵀ, Λ)`` and
    power sequence (see :func:`_transient_uniformized`)."""
    pt, lam = uniformized
    n = pt.shape[0]

    out = np.empty((times.size, n))
    max_time = float(times.max()) if times.size else 0.0
    # The tail weights decay like the Poisson tail; adding a margin to the
    # truncation point keeps the integrated error within tolerance.
    k_max = _truncation_point_cached(lam * max_time, tol * 1e-3) + 10
    _power_sequence(pt, vectors, k_max)

    for idx, t in enumerate(times):
        lam_t = lam * float(t)
        if lam_t == 0.0:
            out[idx] = np.zeros(n)
            continue
        acc = np.zeros(n)
        log_pmf = -lam_t
        cdf = math.exp(log_pmf)
        k = 0
        while True:
            tail = max(0.0, 1.0 - cdf)
            acc += tail * vectors[min(k, k_max)]
            if tail < tol * 1e-3 and k > lam_t:
                break
            if k >= k_max:
                break
            k += 1
            log_pmf += math.log(lam_t) - math.log(k)
            cdf += math.exp(log_pmf)
        out[idx] = acc / lam
    return out
