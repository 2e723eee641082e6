"""IBM SIP/WebSphere composite availability model (tutorial, E21).

The largest of the tutorial's industrial hierarchies (Trivedi et al.,
"Availability Modeling of SIP Protocol on IBM WebSphere"): a SIP
telephony service on a WebSphere Application Server cluster — redundant
proxy servers front a cluster of application-server nodes, each node
running hardware, OS and the WebSphere/SIP software stack, with software
recovery escalation (process restart, then node reboot).

The reproduction keeps the published architecture:

* **leaf CTMCs**: (a) a node's software stack with two-level recovery
  escalation and imperfect restart coverage; (b) node hardware; (c) a
  redundant proxy pair with failover;
* **mid level**: a node = hardware ∧ software (series RBD);
* **top level**: service up while the proxy pair is up and at least
  ``k`` of ``n`` application nodes are up — a k-of-n RBD over the node
  availabilities.

The reproduced claims: overall availability lands near four nines with
default parameters; software failures dominate hardware; and the E23
sensitivity ranking flags the software restart parameters, matching the
paper's conclusion that recovery tuning beats hardware upgrades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Mapping

from ..core.hierarchy import HierarchicalModel, Submodel, export_availability
from ..exceptions import ModelDefinitionError
from ..markov.ctmc import CTMC, MarkovDependabilityModel
from ..nonstate.components import Component
from ..nonstate.rbd import KofN, ReliabilityBlockDiagram, series

__all__ = [
    "SIPParameters",
    "build_software_node",
    "build_hardware_node",
    "build_proxy_pair",
    "build_sip_service",
    "availability_report",
    "resolve_parameters",
    "evaluate_availability",
]

#: integer-valued fields of :class:`SIPParameters` (counts, not rates)
_INT_FIELDS = ("n_nodes", "k_required")

#: Largest ``n_nodes`` a sweep point may ask for: the service RBD holds
#: one block per node, ~0.2 s to build and solve at the cap on a 2-vCPU
#: host; the E21 study stops at 8.
MAX_NODES = 10_000


@dataclass
class SIPParameters:
    """Rates (per hour) for the SIP/WebSphere hierarchy."""

    n_nodes: int = 4
    k_required: int = 2
    # software stack (per node)
    software_failure_rate: float = 1.0 / 700.0
    restart_coverage: float = 0.9          # process restart succeeds
    process_restart_rate: float = 30.0     # 2 min
    node_reboot_rate: float = 4.0          # 15 min escalation
    # node hardware
    hardware_failure_rate: float = 1.0 / 120_000.0
    hardware_repair_rate: float = 0.25     # 4 h
    # proxy pair
    proxy_failure_rate: float = 1.0 / 5_000.0
    proxy_failover_rate: float = 360.0     # 10 s
    proxy_coverage: float = 0.99
    proxy_repair_rate: float = 0.5


def build_software_node(params: SIPParameters) -> MarkovDependabilityModel:
    """Software stack CTMC with two-level recovery escalation.

    ``up`` → failure → ``restarting``; the process restart succeeds with
    probability ``restart_coverage`` (back to ``up``), otherwise
    escalates to a full node ``rebooting``.
    """
    chain = CTMC()
    chain.add_transition("up", "restarting", params.software_failure_rate)
    chain.add_transition(
        "restarting", "up", params.process_restart_rate * params.restart_coverage
    )
    chain.add_transition(
        "restarting",
        "rebooting",
        params.process_restart_rate * (1.0 - params.restart_coverage),
    )
    chain.add_transition("rebooting", "up", params.node_reboot_rate)
    return MarkovDependabilityModel(chain, up_states=["up"], initial="up")


def build_hardware_node(params: SIPParameters) -> MarkovDependabilityModel:
    """Node hardware two-state CTMC."""
    chain = CTMC()
    chain.add_transition("up", "down", params.hardware_failure_rate)
    chain.add_transition("down", "up", params.hardware_repair_rate)
    return MarkovDependabilityModel(chain, up_states=["up"], initial="up")


def build_proxy_pair(params: SIPParameters) -> MarkovDependabilityModel:
    """Redundant SIP proxy pair with imperfect failover."""
    lam = params.proxy_failure_rate
    chain = CTMC()
    chain.add_transition("2", "failover", lam * params.proxy_coverage)
    chain.add_transition("2", "manual", lam * (1.0 - params.proxy_coverage))
    chain.add_transition("2", "1", lam)  # standby proxy failure
    chain.add_transition("failover", "1", params.proxy_failover_rate)
    chain.add_transition("manual", "1", 2.0)  # 30 min manual switch
    chain.add_transition("1", "2", params.proxy_repair_rate)
    chain.add_transition("1", "0", lam)
    chain.add_transition("0", "1", params.proxy_repair_rate)
    return MarkovDependabilityModel(chain, up_states=["2", "1"], initial="2")


def build_sip_service(params: SIPParameters = SIPParameters()) -> HierarchicalModel:
    """The full SIP service hierarchy."""
    hierarchy = HierarchicalModel()
    hierarchy.add_submodel(
        Submodel(
            "software",
            lambda _p: build_software_node(params),
            exports={"availability": export_availability},
        )
    )
    hierarchy.add_submodel(
        Submodel(
            "hardware",
            lambda _p: build_hardware_node(params),
            exports={"availability": export_availability},
        )
    )
    hierarchy.add_submodel(
        Submodel(
            "proxies",
            lambda _p: build_proxy_pair(params),
            exports={"availability": export_availability},
        )
    )

    def build_node(imports) -> ReliabilityBlockDiagram:
        return ReliabilityBlockDiagram(
            series(
                Component.fixed("hw", 1.0 - imports["hw_avail"]),
                Component.fixed("sw", 1.0 - imports["sw_avail"]),
            )
        )

    hierarchy.add_submodel(
        Submodel(
            "node",
            build_node,
            imports={
                "hw_avail": ("hardware", "availability"),
                "sw_avail": ("software", "availability"),
            },
            exports={"availability": export_availability},
        )
    )

    def build_service(imports) -> ReliabilityBlockDiagram:
        node_unavail = 1.0 - imports["node_avail"]
        nodes = [
            Component.fixed(f"node{i}", node_unavail) for i in range(params.n_nodes)
        ]
        return ReliabilityBlockDiagram(
            series(
                Component.fixed("proxies", 1.0 - imports["proxy_avail"]),
                KofN(params.k_required, nodes),
            )
        )

    hierarchy.add_submodel(
        Submodel(
            "service",
            build_service,
            imports={
                "node_avail": ("node", "availability"),
                "proxy_avail": ("proxies", "availability"),
            },
            exports={"availability": export_availability},
        )
    )
    return hierarchy


def availability_report(params: SIPParameters = SIPParameters()) -> Dict[str, float]:
    """E21 summary: availability of every level of the hierarchy."""
    solution = build_sip_service(params).solve()
    return {
        "software": solution.value("software", "availability"),
        "hardware": solution.value("hardware", "availability"),
        "node": solution.value("node", "availability"),
        "proxies": solution.value("proxies", "availability"),
        "service": solution.value("service", "availability"),
    }


def resolve_parameters(assignment: Mapping[str, float]) -> SIPParameters:
    """Validate a (partial) assignment and merge it over the defaults.

    Values must be finite and non-negative; the count fields
    (``n_nodes``, ``k_required``) must additionally be whole numbers,
    and ``n_nodes`` at most :data:`MAX_NODES`.  Unknown names raise a
    :class:`~repro.exceptions.ModelDefinitionError` listing the valid
    field names — the same contract as the BladeCenter evaluator.
    """
    merged = {}
    for name, value in assignment.items():
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ModelDefinitionError(
                f"SIP parameter {name!r} must be finite and non-negative, got {value}"
            )
        if name in _INT_FIELDS:
            if value != int(value):
                raise ModelDefinitionError(
                    f"SIP parameter {name!r} must be a whole number, got {value}"
                )
            if name == "n_nodes" and value > MAX_NODES:
                raise ModelDefinitionError(
                    f"SIP parameter 'n_nodes' must be at most {MAX_NODES}, got {int(value)}"
                )
            merged[name] = int(value)
        else:
            merged[name] = value
    try:
        return replace(SIPParameters(), **merged)
    except TypeError:
        known = {f for f in SIPParameters.__dataclass_fields__}
        unknown = sorted(set(assignment) - known)
        raise ModelDefinitionError(
            f"unknown SIP parameter(s) {unknown}; valid names: {sorted(known)}"
        ) from None


def evaluate_availability(assignment: Mapping[str, float]) -> float:
    """Top-level SIP service availability for a sweep point.

    Keys are :class:`SIPParameters` field names; unassigned fields keep
    the published defaults.  Builds and solves the full hierarchy per
    call — module-level and picklable, the engine / serving-registry
    evaluator for the E21 case study.
    """
    params = resolve_parameters(assignment)
    solution = build_sip_service(params).solve()
    return float(solution.value("service", "availability"))
