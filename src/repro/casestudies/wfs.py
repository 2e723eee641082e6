"""Workstations & file server (WFS) — the canonical hierarchy example (E15).

The textbook two-level example (Trivedi, *Probability & Statistics with
Reliability...*): a cluster of ``n`` workstations and one file server;
the service is up while at least ``k`` workstations *and* the file
server are up.  Workstations share one repair crew (a CTMC leaf), the
file server has its own repair (second leaf), and the top level is a
non-state-space combination — availability multiplies because the two
repair facilities are independent.

Because the whole system is small, the *monolithic* CTMC (the product
space) is still tractable, which makes WFS the perfect validation case:
benchmark E15 shows hierarchical == monolithic to solver precision, at a
fraction of the state count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

from ..exceptions import ModelDefinitionError
from ..markov.ctmc import CTMC, MarkovDependabilityModel

__all__ = [
    "WFSParameters",
    "build_workstation_pool",
    "build_file_server",
    "hierarchical_availability",
    "monolithic_availability",
    "monolithic_state_count",
    "resolve_parameters",
    "evaluate_availability",
]

#: integer-valued fields of :class:`WFSParameters` (counts, not rates)
_INT_FIELDS = ("n_workstations", "k_required")

#: Largest ``n_workstations`` a sweep point may ask for.  The pool is an
#: ``(n + 1)``-state birth–death chain solved densely, ~0.2 s at the
#: cap on a 2-vCPU host; the E15 study stops at 32.
MAX_WORKSTATIONS = 500


@dataclass
class WFSParameters:
    """Rates (per hour) for the WFS example."""

    n_workstations: int = 4
    k_required: int = 2
    workstation_failure_rate: float = 1.0 / 2_000.0
    workstation_repair_rate: float = 1.0           # one crew, 1 h
    server_failure_rate: float = 1.0 / 5_000.0
    server_repair_rate: float = 0.5                # 2 h


def build_workstation_pool(params: WFSParameters) -> MarkovDependabilityModel:
    """Birth–death CTMC of ``n`` workstations with one shared repair crew.

    State = number of up workstations; up when >= ``k_required``.
    """
    chain = CTMC()
    n = params.n_workstations
    for up in range(n, 0, -1):
        chain.add_transition(up, up - 1, up * params.workstation_failure_rate)
    for up in range(0, n):
        chain.add_transition(up, up + 1, params.workstation_repair_rate)
    up_states = [u for u in range(params.k_required, n + 1)]
    return MarkovDependabilityModel(chain, up_states=up_states, initial=n)


def build_file_server(params: WFSParameters) -> MarkovDependabilityModel:
    """Two-state CTMC of the file server."""
    chain = CTMC()
    chain.add_transition("up", "down", params.server_failure_rate)
    chain.add_transition("down", "up", params.server_repair_rate)
    return MarkovDependabilityModel(chain, up_states=["up"], initial="up")


def hierarchical_availability(params: WFSParameters = WFSParameters()) -> float:
    """Top-level combination: ``A_pool × A_server``.

    Valid because the pool and the server have independent repair
    facilities — the hierarchy exploits exactly that independence.
    """
    pool = build_workstation_pool(params)
    server = build_file_server(params)
    return pool.steady_state_availability() * server.steady_state_availability()


def monolithic_availability(params: WFSParameters = WFSParameters()) -> float:
    """Exact product-space CTMC availability (the E15 oracle)."""
    chain = CTMC()
    n = params.n_workstations
    for up in range(n + 1):
        for server_up in (True, False):
            state = (up, server_up)
            if up > 0:
                chain.add_transition(state, (up - 1, server_up), up * params.workstation_failure_rate)
            if up < n:
                chain.add_transition(state, (up + 1, server_up), params.workstation_repair_rate)
            if server_up:
                chain.add_transition(state, (up, False), params.server_failure_rate)
            else:
                chain.add_transition(state, (up, True), params.server_repair_rate)
    pi = chain.steady_state()
    return sum(
        prob
        for (up, server_up), prob in pi.items()
        if server_up and up >= params.k_required
    )


def monolithic_state_count(params: WFSParameters) -> int:
    """Size of the product state space, ``2 (n + 1)``."""
    return 2 * (params.n_workstations + 1)


def resolve_parameters(assignment: Mapping[str, float]) -> WFSParameters:
    """Validate a (partial) assignment and merge it over the defaults.

    Values must be finite and non-negative; the count fields
    (``n_workstations``, ``k_required``) must additionally be whole
    numbers, and ``n_workstations`` at most :data:`MAX_WORKSTATIONS`.
    Unknown names raise a
    :class:`~repro.exceptions.ModelDefinitionError` listing the valid
    field names — the same contract as the BladeCenter evaluator.
    """
    merged = {}
    for name, value in assignment.items():
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ModelDefinitionError(
                f"WFS parameter {name!r} must be finite and non-negative, got {value}"
            )
        if name in _INT_FIELDS:
            if value != int(value):
                raise ModelDefinitionError(
                    f"WFS parameter {name!r} must be a whole number, got {value}"
                )
            if name == "n_workstations" and value > MAX_WORKSTATIONS:
                raise ModelDefinitionError(
                    f"WFS parameter 'n_workstations' must be at most "
                    f"{MAX_WORKSTATIONS}, got {int(value)}"
                )
            merged[name] = int(value)
        else:
            merged[name] = value
    try:
        return replace(WFSParameters(), **merged)
    except TypeError:
        known = {f for f in WFSParameters.__dataclass_fields__}
        unknown = sorted(set(assignment) - known)
        raise ModelDefinitionError(
            f"unknown WFS parameter(s) {unknown}; valid names: {sorted(known)}"
        ) from None


def evaluate_availability(assignment: Mapping[str, float]) -> float:
    """Hierarchical service availability for a sweep point.

    Keys are :class:`WFSParameters` field names; unassigned fields keep
    the textbook defaults.  Module-level and picklable — the engine /
    serving-registry evaluator for the WFS case study.
    """
    return float(hierarchical_availability(resolve_parameters(assignment)))
