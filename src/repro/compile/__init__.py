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
"""

from .ctmc import CompiledCTMC, Complement, Const, Param, RateTerm, Scaled, Times
from .model import (
    CompiledBladeCenter,
    CompiledCiscoRouter,
    CompiledEvaluator,
    CompiledSunPlatform,
    compile_model,
    supports_compilation,
)
from .sparse import CompiledNFVChain, CompiledSparseCTMC, SweepStats, continuation_order
from .structure import CompiledStructureFunction

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
    "CompiledCiscoRouter",
    "CompiledSunPlatform",
    "CompiledNFVChain",
    "SweepStats",
    "compile_model",
    "supports_compilation",
    "continuation_order",
]
