"""Pluggable solver-method registries for the Markov front doors.

Before this module, the method names accepted by
:func:`~repro.markov.fallback.solve_steady_state` and
:func:`~repro.markov.solvers.solve_transient` were hardcoded if/elif
chains: adding a backend meant editing the front door.  The registries
here make the dispatch data: a :class:`SolverRegistry` maps method
names (plus aliases) to kernel callables with optional *pre-checks*
(cheap applicability guards run before the kernel, e.g. "GTH refuses to
densify above 20 000 states") and a *supports* predicate consulted with
the pre-flight :class:`~repro.markov.fallback.GeneratorDiagnostics`.

Two module-level registries back the front doors:

* :data:`STEADY_STATE` — ``gth`` / ``direct`` / ``power`` (the historic
  trio, registered with identical kernels so existing ``method=``
  strings stay bit-identical) plus the large-state-space backends
  ``gmres`` and ``bicgstab`` (preconditioned Krylov iteration from
  :mod:`repro.sparse.krylov`, imported lazily);
* :data:`TRANSIENT` — ``uniformization`` / ``ode`` plus ``krylov``
  (alias ``expm_multiply``).

Third-party backends plug in with::

    from repro.markov import registry
    registry.STEADY_STATE.register_method("mymethod", my_kernel)
    solve_steady_state(q, method="mymethod")

Kernels receive the CSR generator (steady state: ``fn(q) -> π``;
transient: ``fn(q, initial, times, tol=...) -> (T, n) array``) and run
inside the front doors' guard/report machinery, so a registered method
automatically participates in fallback chains, ``SolverReport``
attempts, tracing and ``diagnostics=`` pre-flights.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SolverError
from .solvers import (
    _UNIFORMIZATION_MAX_TERMS,
    _UNIFORMIZATION_TOL,
    gth_solve,
    steady_state_direct,
    steady_state_power,
    transient_ode,
    transient_uniformization,
)

__all__ = [
    "SolverMethod",
    "SolverRegistry",
    "STEADY_STATE",
    "TRANSIENT",
    "GTH_DENSE_LIMIT",
    "TRANSIENT_KRYLOV_LIMIT",
    "record_iterations",
    "consume_iterations",
]

PreCheck = Callable[..., None]
Supports = Callable[[Any], bool]

#: GTH materializes a dense n×n copy; above this many states the dense
#: buffer alone exceeds ~3 GiB and the O(n³) elimination is hopeless, so
#: the registry pre-check fails the stage over to sparse methods.
GTH_DENSE_LIMIT = 20_000

#: ``solve_transient(method="auto")`` switches from uniformization
#: (which stores one vector per Poisson term) to Krylov ``expm_multiply``
#: stepping above this many states.
TRANSIENT_KRYLOV_LIMIT = 50_000

#: Thread-local side channel carrying the last kernel's iteration count
#: out to the front door (kernel signatures return only π, and SolverReport
#: assembly happens a frame above the kernel call).
_ITERATIONS = threading.local()


def record_iterations(count: Optional[int]) -> None:
    """Publish an iterative kernel's iteration count for this thread.

    Called by the Krylov kernels at the end of a solve; the front door
    picks it up with :func:`consume_iterations` and attaches it to the
    stage's :class:`~repro.markov.fallback.SolverAttempt`.
    """
    _ITERATIONS.value = None if count is None else int(count)


def consume_iterations() -> Optional[int]:
    """Read and clear this thread's recorded iteration count."""
    value = getattr(_ITERATIONS, "value", None)
    _ITERATIONS.value = None
    return value


class SolverMethod:
    """One registered solver backend: kernel + guards + metadata."""

    __slots__ = ("name", "fn", "pre_checks", "supports", "accepts_x0")

    def __init__(
        self,
        name: str,
        fn: Callable,
        pre_checks: Tuple[PreCheck, ...] = (),
        supports: Optional[Supports] = None,
        accepts_x0: bool = False,
    ):
        self.name = name
        self.fn = fn
        self.pre_checks = tuple(pre_checks)
        self.supports = supports
        self.accepts_x0 = accepts_x0

    def __call__(self, *args, **kwargs):
        """Run the pre-checks in registration order, then the kernel."""
        for check in self.pre_checks:
            check(*args, **kwargs)
        return self.fn(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverMethod({self.name!r}, pre_checks={len(self.pre_checks)}, "
            f"supports={'yes' if self.supports else 'any'})"
        )


class SolverRegistry:
    """A named collection of solver methods with aliasing and override guard.

    Parameters
    ----------
    kind:
        Human-readable registry name used in error messages
        (``"steady-state"`` / ``"transient"``).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._methods: Dict[str, SolverMethod] = {}
        self._aliases: Dict[str, str] = {}

    def register_method(
        self,
        name: str,
        fn: Callable,
        *,
        pre_checks: Sequence[PreCheck] = (),
        supports: Optional[Supports] = None,
        aliases: Sequence[str] = (),
        replace: bool = False,
        accepts_x0: bool = False,
    ) -> SolverMethod:
        """Register a solver backend under ``name``.

        Parameters
        ----------
        name:
            The ``method=`` string users will pass to the front door.
        fn:
            The kernel callable (front-door-specific signature).
        pre_checks:
            Cheap guards run (in order) before the kernel with the same
            arguments; raising :class:`~repro.exceptions.SolverError`
            fails the stage over to the next one in a fallback chain.
        supports:
            Optional predicate on the pre-flight
            :class:`~repro.markov.fallback.GeneratorDiagnostics`;
            returning ``False`` removes the method from ``"auto"``
            orderings (explicit ``method=`` requests still run it,
            pre-checks permitting).
        aliases:
            Alternative spellings resolving to the same method.
        replace:
            Re-registering an existing name (or alias) without
            ``replace=True`` raises — silent shadowing of a production
            solver is exactly the bug class registries invite.
        accepts_x0:
            The kernel takes an ``x0=`` initial-guess kwarg; the front
            door forwards warm starts only to stages that declare it.
        """
        if not replace:
            taken = [n for n in (name, *aliases) if n in self._methods or n in self._aliases]
            if taken:
                raise SolverError(
                    f"{self.kind} method name(s) {taken} already registered; "
                    "pass replace=True to override"
                )
        method = SolverMethod(name, fn, tuple(pre_checks), supports, accepts_x0)
        self._methods[name] = method
        self._aliases.pop(name, None)
        for alias in aliases:
            self._aliases[alias] = name
            self._methods.pop(alias, None)
        return method

    def resolve(self, name: str) -> str:
        """Canonical method name for ``name`` (follows aliases)."""
        return self._aliases.get(name, name)

    def get(self, name: str) -> SolverMethod:
        """Look up a method (by name or alias); raises SolverError if unknown."""
        canonical = self.resolve(name)
        try:
            return self._methods[canonical]
        except KeyError:
            raise SolverError(
                f"unknown {self.kind} method {name!r}; "
                f"registered: {sorted(self.names())}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Registered canonical method names."""
        return tuple(self._methods)

    def __contains__(self, name: str) -> bool:
        return self.resolve(name) in self._methods

    def stages(self) -> Dict[str, SolverMethod]:
        """Canonical-name → method mapping (a fresh dict)."""
        return dict(self._methods)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SolverRegistry({self.kind!r}, methods={sorted(self._methods)})"


# --------------------------------------------------------------- steady state
def _check_gth_size(q, *args, **kwargs) -> None:
    n = q.shape[0]
    if n > GTH_DENSE_LIMIT:
        raise SolverError(
            f"GTH would materialize a dense {n}×{n} matrix "
            f"({8 * n * n / 1e9:.1f} GB); use 'direct', 'gmres' or 'power' "
            f"above {GTH_DENSE_LIMIT} states"
        )


def _stage_gth(q) -> np.ndarray:
    return gth_solve(q.toarray(), validated=True)


def _stage_direct(q) -> np.ndarray:
    return steady_state_direct(q, validated=True)


def _stage_power(q) -> np.ndarray:
    return steady_state_power(q, validated=True)


def _stage_gmres(q, x0=None) -> np.ndarray:
    from ..sparse.krylov import steady_state_gmres

    return steady_state_gmres(q, validated=True, x0=x0)


def _stage_bicgstab(q, x0=None) -> np.ndarray:
    from ..sparse.krylov import steady_state_bicgstab

    return steady_state_bicgstab(q, validated=True, x0=x0)


#: The steady-state method registry behind
#: :func:`repro.markov.fallback.solve_steady_state`.
STEADY_STATE = SolverRegistry("steady-state")
STEADY_STATE.register_method(
    "gth",
    _stage_gth,
    pre_checks=(_check_gth_size,),
    supports=lambda diag: diag.n_states <= GTH_DENSE_LIMIT,
)
STEADY_STATE.register_method("direct", _stage_direct)
STEADY_STATE.register_method("power", _stage_power)
STEADY_STATE.register_method("gmres", _stage_gmres, accepts_x0=True)
STEADY_STATE.register_method("bicgstab", _stage_bicgstab, accepts_x0=True)


# ------------------------------------------------------------------ transient
def _transient_uniformization(
    q, initial, times, tol=_UNIFORMIZATION_TOL, max_terms=_UNIFORMIZATION_MAX_TERMS
):
    return transient_uniformization(q, initial, times, tol=tol, max_terms=max_terms)


def _transient_ode(q, initial, times, tol=1e-10, **_ignored):
    return transient_ode(q, initial, times, tol=tol)


def _transient_krylov(q, initial, times, tol=1e-10, **_ignored):
    from ..sparse.krylov import transient_krylov

    return transient_krylov(q, initial, times, tol=tol)


#: The transient method registry behind
#: :func:`repro.markov.solvers.solve_transient`.
TRANSIENT = SolverRegistry("transient")
TRANSIENT.register_method("uniformization", _transient_uniformization)
TRANSIENT.register_method("ode", _transient_ode)
TRANSIENT.register_method("krylov", _transient_krylov, aliases=("expm_multiply",))
