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

Kernels receive the CSR generator (steady state: ``fn(q) -> π``, or a
:class:`StageResult` carrying the iteration count too; transient:
``fn(q, initial, times, tol=...) -> (T, n) array``) and run inside the
front doors' guard/report machinery, so a registered method
automatically participates in fallback chains, ``SolverReport``
attempts, tracing and ``diagnostics=`` pre-flights.

:data:`POLICY` is the one table of route thresholds and tolerances:
which stage order ``auto`` walks, where GTH refuses to densify, where
transient solves switch to Krylov stepping, and the residual and
generator tolerances every front door applies.  It and
:func:`check_gth_size` are defined in the numpy-only
:mod:`repro._kernels` (so the compiled sweep path can read them without
loading scipy) and re-exported here unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .._kernels import POLICY, SolverPolicy, check_gth_size
from ..exceptions import SolverError
from . import solvers

__all__ = [
    "SolverPolicy",
    "POLICY",
    "StageResult",
    "SolverMethod",
    "SolverRegistry",
    "STEADY_STATE",
    "TRANSIENT",
    "check_gth_size",
]

PreCheck = Callable[..., None]
Supports = Callable[[Any], bool]


class StageResult(NamedTuple):
    """A steady-state kernel's vector with the iterations it spent.

    Iterative kernels return one; a stage that returns a bare vector
    reports ``iterations=None``.
    """

    pi: np.ndarray
    iterations: Optional[int]


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
def _stage_gth(q) -> np.ndarray:
    return solvers.gth_solve(q.toarray(), validated=True)


def _stage_direct(q) -> np.ndarray:
    return solvers.steady_state_direct(q, validated=True)


def _stage_power(q) -> np.ndarray:
    return solvers.steady_state_power(q, validated=True)


def _krylov_stage(method: str) -> Callable:
    def stage(q, x0=None) -> StageResult:
        # Through the module attribute: tracing wraps it by name.
        from ..sparse import krylov

        return krylov.steady_state_iterative(q, method=method, validated=True, x0=x0)

    return stage


#: The steady-state method registry behind
#: :func:`repro.markov.fallback.solve_steady_state`.
STEADY_STATE = SolverRegistry("steady-state")
STEADY_STATE.register_method(
    "gth",
    _stage_gth,
    pre_checks=(lambda q, *args, **kwargs: check_gth_size(q.shape[0]),),
    supports=lambda diag: diag.n_states <= POLICY.gth_max_states,
)
STEADY_STATE.register_method("direct", _stage_direct)
STEADY_STATE.register_method("power", _stage_power)
STEADY_STATE.register_method("gmres", _krylov_stage("gmres"), accepts_x0=True)
STEADY_STATE.register_method("bicgstab", _krylov_stage("bicgstab"), accepts_x0=True)


# ------------------------------------------------------------------ transient
def _transient_uniformization(q, initial, times, **kwargs):
    return solvers.transient_uniformization(q, initial, times, **kwargs)


def _transient_ode(q, initial, times, tol=1e-10, **_ignored):
    return solvers.transient_ode(q, initial, times, tol=tol)


def _transient_krylov(q, initial, times, **_ignored):
    from ..sparse.krylov import transient_krylov

    return transient_krylov(q, initial, times)


#: The transient method registry behind
#: :func:`repro.markov.solvers.solve_transient`.
TRANSIENT = SolverRegistry("transient")
TRANSIENT.register_method("uniformization", _transient_uniformization)
TRANSIENT.register_method("ode", _transient_ode)
TRANSIENT.register_method("krylov", _transient_krylov, aliases=("expm_multiply",))
