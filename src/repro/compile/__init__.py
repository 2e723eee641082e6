"""repro.compile — compiled-model sweep kernels.

Separates **symbolic structure** (built once) from **numeric fill**
(per sweep point):

* one compiled-chain core (:mod:`repro.compile.ctmc`) — a frozen CSR
  pattern plus interned symbolic rate terms, a ``fill`` of the CSR
  ``data`` into thread-local buffers and one bounded memo — with two
  front ends:

  * :class:`CompiledCTMC` — labelled small chains: GTH / direct /
    power steady state, transient, from a ``CTMC`` or hand-written
    rate terms;
  * :class:`CompiledSparseCTMC` — large state spaces from one
    lazy-reachability BFS: preconditioner reuse and warm-started
    Krylov sweeps (:func:`continuation_order` orders campaigns so
    neighbors stay close in parameter space);
* :class:`CompiledStructureFunction` — RBD/fault-tree structure
  lowered once, all sweep points evaluated in one vectorized pass;
* :func:`compile_model` / :func:`supports_compilation` — turn case
  studies and model objects into picklable batch evaluators the engine
  ships once per worker.

All compiled paths are bit-identical to their uncompiled counterparts
(warm-started ``sweep`` chains are the documented tolerance-level
exception); see ``docs/PERFORMANCE.md`` for when compilation pays off.

The sparse front end (:mod:`repro.compile.sparse`) is imported on first
use, so ``import repro.compile`` and the small-chain evaluators load
neither ``scipy.sparse`` nor ``scipy.linalg``.
"""

from typing import TYPE_CHECKING

from .ctmc import CompiledCTMC, Complement, Const, Param, RateTerm, Scaled, Times
from .model import (
    CompiledBladeCenter,
    CompiledBoeingTree,
    CompiledCiscoRouter,
    CompiledEvaluator,
    CompiledSunPlatform,
    compile_model,
    supports_compilation,
)
from .structure import CompiledStructureFunction

#: names resolved on first access (PEP 562): the sparse front end loads
#: scipy, which the small-chain sweep path never needs
_LAZY = {
    "CompiledNFVChain": "repro.compile.sparse",
    "CompiledSparseCTMC": "repro.compile.sparse",
    "SweepStats": "repro.compile.sparse",
    "continuation_order": "repro.compile.sparse",
}

__all__ = [
    "RateTerm",
    "Const",
    "Param",
    "Scaled",
    "Times",
    "Complement",
    "CompiledCTMC",
    "CompiledSparseCTMC",
    "CompiledStructureFunction",
    "CompiledEvaluator",
    "CompiledBladeCenter",
    "CompiledBoeingTree",
    "CompiledCiscoRouter",
    "CompiledSunPlatform",
    "CompiledNFVChain",
    "SweepStats",
    "compile_model",
    "supports_compilation",
    "continuation_order",
]


def __getattr__(name: str):
    """Resolve a lazily imported export on first access (PEP 562)."""
    import importlib

    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .sparse import CompiledNFVChain, CompiledSparseCTMC, SweepStats, continuation_order
