"""The solver policy table and the dense GTH kernel, on numpy alone.

Both live outside :mod:`repro.markov` because importing any
``repro.markov.*`` module runs that package's eager ``__init__``, which
loads scipy.  The compiled sweep path (:mod:`repro.compile`) needs only
these two pieces, so it imports them from here and stays scipy-free;
:mod:`repro.markov.registry` and :mod:`repro.markov.solvers` re-export
them unchanged.

* :class:`SolverPolicy` / :data:`POLICY` — the one table of route
  thresholds and tolerances every solver front door reads;
* :func:`gth_eliminate` — GTH elimination of one generator or of an
  ``(m, n, n)`` stack of them, one operation order for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .exceptions import SolverError

__all__ = ["SolverPolicy", "POLICY", "check_gth_size", "gth_eliminate"]


@dataclass
class SolverPolicy:
    """The one table of solver route thresholds and tolerances.

    Every size threshold that picks a steady-state or transient route,
    and every tolerance the front doors apply, is a row here; the
    solvers read :data:`POLICY` and define none of their own.  Routes
    and guards read it per call; the ``tol=`` keyword defaults of
    ``validate_generator`` and the lint scans bind ``generator_tol``
    when their modules load.
    """

    #: ``auto`` puts GTH first at or below this many states ...
    gth_first_states: int = 2_000
    #: ... or at a stiffness ratio ``max_rate / min_rate`` at or above
    #: this; lint code M103 warns from the same row.
    gth_first_stiffness: float = 1e8
    #: ``auto`` puts the Krylov stages first above this many states for
    #: a hand-built generator ...
    iterative_states: int = 50_000
    #: ... and above this many for a chain built by reachability
    #: (``SparseCTMC``, ``CompiledSparseCTMC``), where sparse-LU fill-in
    #: explodes.  The compiled chain also warm-starts and runs ``sweep``'s
    #: Krylov branch above it.
    iterative_states_reachability: int = 5_000
    #: GTH densifies an n×n copy; every GTH path refuses above this.
    gth_max_states: int = 20_000
    #: ``solve_transient(method="auto")`` steps by Krylov
    #: ``expm_multiply`` above this many states, else uniformizes.
    transient_krylov_states: int = 50_000
    #: A stage's vector is accepted only with relative residual
    #: ``‖π Q‖∞ / max(1, max|Q|)`` at or below this.
    stage_residual: float = 1e-8
    #: Generator row sums (and negative off-diagonals) are accepted
    #: within this tolerance scaled by the largest absolute rate.
    generator_tol: float = 1e-8
    #: A full GMRES restart cycle that cuts the true residual
    #: ``‖b − A x‖`` by less than this fraction ends the solve as
    #: stagnated, so the ``auto`` chain moves on instead of running out
    #: the budget.
    gmres_min_cycle_reduction: float = 0.01

    def steady_state_route(
        self, n_states: int, stiffness_ratio: float, iterative_limit: Optional[int] = None
    ) -> Tuple[str, Tuple[str, ...]]:
        """``(route, stage order)`` of an ``auto`` steady-state solve.

        ``iterative_limit`` defaults to :attr:`iterative_states`.
        """
        if iterative_limit is None:
            iterative_limit = self.iterative_states
        if n_states > iterative_limit:
            return "iterative", ("gmres", "bicgstab", "power")
        if n_states <= self.gth_first_states:
            return "gth-first:small", ("gth", "direct", "power")
        if stiffness_ratio >= self.gth_first_stiffness:
            return "gth-first:stiff", ("gth", "direct", "power")
        return "direct-first", ("direct", "power", "gth")


#: The table the front doors read.
POLICY = SolverPolicy()


def check_gth_size(n: int) -> None:
    """Refuse to densify a chain above :attr:`SolverPolicy.gth_max_states`."""
    if n > POLICY.gth_max_states:
        raise SolverError(
            f"GTH would materialize a dense {n}×{n} matrix "
            f"({8 * n * n / 1e9:.1f} GB); use 'direct', 'gmres' or 'power' "
            f"above {POLICY.gth_max_states} states"
        )


def gth_eliminate(a: np.ndarray) -> np.ndarray:
    """Stationary vectors by GTH elimination, overwriting ``a``.

    ``a`` is one dense ``(n, n)`` generator or an ``(m, n, n)`` stack of
    them (float64, owned by the caller: it is used as the work array).
    Only the off-diagonal rates are read; the diagonal is left as
    garbage.  Returns ``π`` of shape ``(n,)`` or ``(m, n)``.

    Every entry of a stack goes through the same floating-point
    operations, in the same order, as the same matrix eliminated alone,
    so stacking never changes a bit: the pivot sums reduce along the
    contiguous last axis, the rank-one update forms ``(a_ik · a_kj) /
    total`` before adding it, and the back-substitution dot is
    ``np.vecdot`` (a broadcast multiply-and-sum would reorder it).
    The back substitution reuses the elimination's pivot sums: the rows
    they sum are not written after their own step.

    Raises :class:`~repro.exceptions.SolverError` when a pivot sum is
    not positive (the chain is not irreducible).  The pivot sums are
    checked once, after the elimination: a per-step check costs more
    than the whole step on small chains.
    """
    n = a.shape[-1]
    if n == 1:
        return np.ones(a.shape[:-1])
    totals = np.empty(a.shape[:-1])
    # a zero pivot divides by zero; the check below reports it instead
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            total = a[..., k, :k].sum(axis=-1)
            totals[..., k] = total
            update = a[..., :k, k, None] * a[..., None, k, :k]
            update /= total[..., None, None]
            a[..., :k, :k] += update
    if (totals[..., 1:] <= 0.0).any():
        raise SolverError(
            "GTH elimination hit a state with no transitions back into the "
            "remaining block; the chain is not irreducible"
        )
    pi = np.empty(a.shape[:-1])
    pi[..., 0] = 1.0
    for k in range(1, n):
        pi[..., k] = np.vecdot(pi[..., :k], a[..., :k, k]) / totals[..., k]
    pi /= pi.sum(axis=-1, keepdims=True)
    return pi
