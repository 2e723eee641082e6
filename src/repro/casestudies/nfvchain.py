"""NFV service chain — the scalable large-state-space zoo (E37).

A network service is a chain of ``n_vnfs`` virtual network functions
(firewall → NAT → load balancer → ...); each VNF stage runs
``replicas`` replicas and is operational while at least
``min_replicas`` of them are up.  Replicas fail independently
(rate ``failure_rate`` each) and every stage has its own pool of
``repair_crews`` crews (rate ``repair_rate`` per crew) — so the stage
marking process is a finite birth–death chain and the chain-of-stages
product space has ``(replicas + 1) ** n_vnfs`` tangible markings.

That product growth is the point: the spec dials smoothly from 64
states (defaults) to 10^5–10^6+, which makes this the standard workout
for the CSR reachability + sparse solver path.  Three independent
routes to the same availability number keep the big runs honest:

* :func:`build_nfv_srn` — the SRN (Petri-net) model, solved through
  the standard front doors;
* :func:`build_nfv_generator` — a vectorized mixed-radix construction
  of the very same CSR generator, no Petri net and no BFS, for
  benchmarking the solvers in isolation;
* :func:`analytic_availability` — stages are independent, so the exact
  answer is the per-stage birth–death availability raised to the
  ``n_vnfs``-th power, at ``replicas + 1`` states of work.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse as _sp

from ..exceptions import ModelDefinitionError
from ..markov.ctmc import CTMC
from ..petrinet.net import PetriNet
from ..petrinet.srn import SRNDependabilityModel, StochasticRewardNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..compile.sparse import CompiledSparseCTMC

__all__ = [
    "NFVChainSpec",
    "state_count",
    "build_nfv_net",
    "build_nfv_srn",
    "build_nfv_model",
    "build_nfv_generator",
    "compile_nfv_chain",
    "stage_availability",
    "analytic_availability",
    "resolve_parameters",
    "evaluate_availability",
]

#: integer-valued fields of :class:`NFVChainSpec` (counts, not rates)
_INT_FIELDS = ("n_vnfs", "replicas", "min_replicas", "repair_crews")


@dataclass(frozen=True)
class NFVChainSpec:
    """Parameters of the NFV service chain (rates per hour)."""

    n_vnfs: int = 3
    replicas: int = 3
    min_replicas: int = 1
    failure_rate: float = 1e-3
    repair_rate: float = 0.5
    repair_crews: int = 2

    def __post_init__(self):
        if self.n_vnfs < 1:
            raise ModelDefinitionError("n_vnfs must be >= 1")
        if self.replicas < 1:
            raise ModelDefinitionError("replicas must be >= 1")
        if not 1 <= self.min_replicas <= self.replicas:
            raise ModelDefinitionError(
                f"min_replicas must be in [1, replicas={self.replicas}], "
                f"got {self.min_replicas}"
            )
        if self.repair_crews < 1:
            raise ModelDefinitionError("repair_crews must be >= 1")
        if self.failure_rate <= 0.0 or self.repair_rate <= 0.0:
            raise ModelDefinitionError("failure_rate and repair_rate must be > 0")


def state_count(spec: NFVChainSpec) -> int:
    """Tangible markings: ``(replicas + 1) ** n_vnfs``."""
    return (spec.replicas + 1) ** spec.n_vnfs


def _up_place(i: int) -> str:
    return f"up{i}"


def _down_place(i: int) -> str:
    return f"down{i}"


def build_nfv_net(spec: NFVChainSpec = NFVChainSpec()) -> PetriNet:
    """The Petri-net description of the chain.

    Stage ``i`` contributes places ``up{i}`` / ``down{i}`` and two
    marking-dependent timed transitions: ``fail{i}`` at
    ``failure_rate × #up{i}`` (each up replica fails independently) and
    ``repair{i}`` at ``repair_rate × min(#down{i}, repair_crews)``
    (crews work one replica each).
    """
    net = PetriNet()
    lam, mu, crews = spec.failure_rate, spec.repair_rate, spec.repair_crews
    for i in range(spec.n_vnfs):
        up, down = _up_place(i), _down_place(i)
        net.add_place(up, initial=spec.replicas)
        net.add_place(down)
        net.add_timed_transition(
            f"fail{i}", rate=lambda m, up=up: lam * m[up]
        )
        net.add_input_arc(f"fail{i}", up)
        net.add_output_arc(f"fail{i}", down)
        net.add_timed_transition(
            f"repair{i}", rate=lambda m, down=down: mu * min(m[down], crews)
        )
        net.add_input_arc(f"repair{i}", down)
        net.add_output_arc(f"repair{i}", up)
    return net


def _up_condition(spec: NFVChainSpec):
    names = [_up_place(i) for i in range(spec.n_vnfs)]
    k = spec.min_replicas
    return lambda m: all(m[name] >= k for name in names)


def build_nfv_srn(
    spec: NFVChainSpec = NFVChainSpec(),
    **options,
) -> StochasticRewardNet:
    """The SRN over :func:`build_nfv_net`.

    The service up-condition is attached during generation, so the
    resulting :class:`~repro.sparse.SparseCTMC` carries its up mask.
    Extra options go to :class:`~repro.petrinet.StochasticRewardNet`.
    """
    options.setdefault("up", _up_condition(spec))
    return StochasticRewardNet(build_nfv_net(spec), **options)


def build_nfv_model(
    spec: NFVChainSpec = NFVChainSpec(),
    **options,
) -> SRNDependabilityModel:
    """The dependability adapter (availability / reliability / MTTF)."""
    return SRNDependabilityModel(build_nfv_srn(spec, **options), _up_condition(spec))


def build_nfv_generator(
    spec: NFVChainSpec = NFVChainSpec(),
) -> Tuple[_sp.csr_matrix, np.ndarray]:
    """Vectorized product-form construction of the CSR generator.

    States are mixed-radix numbers in base ``replicas + 1``: digit ``i``
    is the number of up replicas in stage ``i``.  Per stage, failures
    step the digit down at ``failure_rate × digit`` and repairs step it
    up at ``repair_rate × min(replicas − digit, repair_crews)`` — the
    whole (off-diagonal) rate pattern falls out of one digit matrix and
    a handful of array ops, with no Petri net, no BFS and no dense
    intermediate.  Returns ``(Q, up_mask)``.

    The state *indexing* differs from the BFS order of
    :func:`build_nfv_srn`: a BFS marking ``m`` sits at product-form
    index ``Σ_i m[up{i}] · (replicas + 1)^i``.
    """
    n = state_count(spec)
    radix = spec.replicas + 1
    lam, mu, crews = spec.failure_rate, spec.repair_rate, spec.repair_crews
    idx = np.arange(n, dtype=np.int64)
    rows_parts, cols_parts, vals_parts = [], [], []
    for i in range(spec.n_vnfs):
        stride = radix**i
        digit = (idx // stride) % radix
        can_fail = digit > 0
        rows_parts.append(idx[can_fail])
        cols_parts.append(idx[can_fail] - stride)
        vals_parts.append(lam * digit[can_fail].astype(float))
        can_repair = digit < spec.replicas
        rows_parts.append(idx[can_repair])
        cols_parts.append(idx[can_repair] + stride)
        vals_parts.append(
            mu * np.minimum(spec.replicas - digit[can_repair], crews).astype(float)
        )
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    vals = np.concatenate(vals_parts)
    diag = np.zeros(n)
    np.subtract.at(diag, rows, vals)
    q = _sp.coo_matrix(
        (
            np.concatenate([vals, diag]),
            (np.concatenate([rows, idx]), np.concatenate([cols, idx])),
        ),
        shape=(n, n),
    ).tocsr()
    up_mask = np.ones(n, dtype=bool)
    for i in range(spec.n_vnfs):
        up_mask &= ((idx // radix**i) % radix) >= spec.min_replicas
    return q, up_mask


def _rate_values(spec: NFVChainSpec) -> Mapping[str, float]:
    return {"failure_rate": spec.failure_rate, "repair_rate": spec.repair_rate}


def _nfv_rate_terms(spec: NFVChainSpec):
    """The symbolic twin of :func:`build_nfv_net`'s rate closures.

    ``fail{i}`` fires at ``#up{i} × failure_rate`` and ``repair{i}`` at
    ``min(#down{i}, crews) × repair_rate`` — ``Scaled`` multiplies
    ``factor × value``, which is bit-identical to the net's
    ``rate × count`` closures (IEEE multiplication commutes), so a
    compiled refill at the build rates reproduces the generated chain's
    ``data`` bytes exactly.
    """
    from ..compile.ctmc import Scaled

    crews = spec.repair_crews

    def terms(transition, marking):
        name = transition.name
        if name.startswith("fail"):
            return Scaled(float(marking[_up_place(int(name[4:]))]), "failure_rate")
        count = min(marking[_down_place(int(name[6:]))], crews)
        return Scaled(float(count), "repair_rate")

    return terms


#: Count-signature → compiled structure.  The CSR pattern, term table
#: and up mask depend only on the integer fields (crews are baked into
#: the repair term factors, ``min_replicas`` into the up mask), so every
#: rate-only sweep point reuses one frozen structure instead of
#: re-running BFS reachability.  Bounded: real sweeps vary rates over a
#: handful of topologies, and one 10^6-state structure is ~100 MB.
_STRUCTURE_CACHE: "OrderedDict[Tuple[int, int, int, int], CompiledSparseCTMC]" = OrderedDict()
_STRUCTURE_CACHE_LIMIT = 8
_STRUCTURE_LOCK = threading.Lock()


def compile_nfv_chain(spec: NFVChainSpec = NFVChainSpec()) -> "CompiledSparseCTMC":
    """The compiled (build-once, fill-many) form of the NFV chain.

    Runs BFS reachability **once** per count signature
    ``(n_vnfs, replicas, min_replicas, repair_crews)``, recording each
    transition's symbolic rate term, and memoizes the resulting
    :class:`~repro.compile.sparse.CompiledSparseCTMC` in a bounded LRU
    cache — rate-only sweep points refill the frozen CSR in O(nnz).
    The returned object is shared: treat it as read-only and pass
    parameter values per call.
    """
    key = (spec.n_vnfs, spec.replicas, spec.min_replicas, spec.repair_crews)
    with _STRUCTURE_LOCK:
        compiled = _STRUCTURE_CACHE.get(key)
        if compiled is not None:
            _STRUCTURE_CACHE.move_to_end(key)
            return compiled
    from ..sparse.reachability import build_sparse_reachability

    result = build_sparse_reachability(
        build_nfv_net(spec),
        up=_up_condition(spec),
        rate_terms=_nfv_rate_terms(spec),
        rate_values=_rate_values(spec),
    )
    compiled = result.compiled
    with _STRUCTURE_LOCK:
        _STRUCTURE_CACHE[key] = compiled
        while len(_STRUCTURE_CACHE) > _STRUCTURE_CACHE_LIMIT:
            _STRUCTURE_CACHE.popitem(last=False)
    return compiled


def stage_availability(spec: NFVChainSpec) -> float:
    """Exact single-stage availability from the birth–death chain.

    ``replicas + 1`` states (number of up replicas), solved with the
    standard dense path — the per-stage oracle.
    """
    chain = CTMC()
    for k in range(spec.replicas, 0, -1):
        chain.add_transition(k, k - 1, k * spec.failure_rate)
    for k in range(spec.replicas):
        chain.add_transition(
            k, k + 1, spec.repair_rate * min(spec.replicas - k, spec.repair_crews)
        )
    pi = chain.steady_state()
    return sum(prob for k, prob in pi.items() if k >= spec.min_replicas)


def analytic_availability(spec: NFVChainSpec = NFVChainSpec()) -> float:
    """Exact chain availability: stages are independent, so
    ``A_stage ** n_vnfs`` — the oracle every big run is checked against.
    """
    return stage_availability(spec) ** spec.n_vnfs


def resolve_parameters(assignment: Mapping[str, float]) -> NFVChainSpec:
    """Validate a (partial) assignment and merge it over the defaults.

    Values must be finite and non-negative; count fields must be whole
    numbers.  Unknown names raise a
    :class:`~repro.exceptions.ModelDefinitionError` listing the valid
    field names — the same contract as the WFS evaluator.
    """
    merged = {}
    for name, value in assignment.items():
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ModelDefinitionError(
                f"NFV parameter {name!r} must be finite and non-negative, got {value}"
            )
        if name in _INT_FIELDS:
            if value != int(value):
                raise ModelDefinitionError(
                    f"NFV parameter {name!r} must be a whole number, got {value}"
                )
            merged[name] = int(value)
        else:
            merged[name] = value
    known = set(NFVChainSpec.__dataclass_fields__)
    unknown = sorted(set(merged) - known)
    if unknown:
        raise ModelDefinitionError(
            f"unknown NFV parameter(s) {unknown}; valid names: {sorted(known)}"
        )
    return replace(NFVChainSpec(), **merged)


def evaluate_availability(
    assignment: Mapping[str, float], solver_limit: Optional[int] = 200_000
) -> float:
    """Steady-state service availability for a sweep point.

    Keys are :class:`NFVChainSpec` field names; unassigned fields keep
    the defaults.  Solves the full product chain through the compiled
    sparse path — :func:`compile_nfv_chain` memoizes the frozen CSR
    structure per count signature, so rate-only sweep points refill
    rates instead of re-running BFS reachability, and the standard
    ``steady_state`` front door picks the iterative backend
    automatically once the state count warrants it — except above
    ``solver_limit`` states, where it switches to
    :func:`analytic_availability` (pass ``solver_limit=None`` to force
    the numeric path at any size).  Module-level and picklable — the
    engine / serving-registry evaluator for this case study.
    """
    spec = resolve_parameters(assignment)
    if solver_limit is not None and state_count(spec) > solver_limit:
        return float(analytic_availability(spec))
    compiled = compile_nfv_chain(spec)
    return float(compiled.availability(dict(_rate_values(spec))))


#: The engine's ``compile=True`` substitution and the serve registry
#: resolve this to the ship-once compiled evaluator (lazy string spec —
#: importing the case study must not pull in the compile machinery).
evaluate_availability.__compiles_to__ = "repro.compile.sparse:CompiledNFVChain"
