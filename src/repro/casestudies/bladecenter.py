"""IBM BladeCenter availability model (tutorial case study, E19).

The published IBM BladeCenter analysis (Smith, Trivedi et al., IBM
J. R&D 2008 — the tutorial's running example) is a two-level hierarchy:

* **leaf CTMCs** for each redundant chassis subsystem — power supplies,
  blowers (cooling), management modules, Ethernet switch modules — all
  2-unit shared-repair chains; plus the blade server itself (CPU, memory,
  disks RAID-1, NICs) as an RBD;
* **top-level RBD** in series over the subsystem availabilities, one
  branch per blade.

Parameters are the published order-of-magnitude values (MTTFs of 10^5–10^6
hours, MTTR of a few hours with 24x7 service).  Reproduced claims: a
single blade server sees ~4 nines; the chassis infrastructure contributes
a small fraction of total downtime thanks to redundancy; disks and memory
dominate the blade's own downtime budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from ..core.hierarchy import HierarchicalModel, Submodel, export_availability
from ..core.model import DependabilityModel
from ..exceptions import ModelDefinitionError
from ..nonstate.components import Component
from ..nonstate.rbd import ReliabilityBlockDiagram, parallel, series

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from ..markov.ctmc import MarkovDependabilityModel

__all__ = [
    "BladeCenterParameters",
    "build_redundant_pair",
    "build_blade_server",
    "build_chassis",
    "build_bladecenter",
    "downtime_budget",
    "resolve_parameters",
    "evaluate_availability",
]


@dataclass
class BladeCenterParameters:
    """Failure/repair rates (per hour) for the BladeCenter hierarchy."""

    # chassis subsystems: 2-unit redundant, shared repair
    power_failure_rate: float = 1.0 / 670_000.0
    blower_failure_rate: float = 1.0 / 600_000.0
    management_failure_rate: float = 1.0 / 219_000.0
    switch_failure_rate: float = 1.0 / 330_000.0
    chassis_repair_rate: float = 1.0 / 4.0       # 4 h MTTR, 24x7 contract
    # midplane: non-redundant, rarely fails, longer repair
    midplane_failure_rate: float = 1.0 / 2_800_000.0
    midplane_repair_rate: float = 1.0 / 24.0
    # blade-server internals
    cpu_failure_rate: float = 1.0 / 2_500_000.0
    memory_failure_rate: float = 1.0 / 480_000.0
    disk_failure_rate: float = 1.0 / 300_000.0
    nic_failure_rate: float = 1.0 / 1_200_000.0
    raid_rebuild_rate: float = 1.0 / 6.0          # RAID-1 rebuild, 6 h
    blade_repair_rate: float = 1.0 / 4.0
    # OS/software failure & reboot
    software_failure_rate: float = 1.0 / 4_000.0
    software_repair_rate: float = 6.0             # 10-minute reboot


def build_redundant_pair(
    failure_rate: float, repair_rate: float, shared_repair: bool = True
) -> MarkovDependabilityModel:
    """2-unit redundant subsystem CTMC (the chassis building block).

    With ``shared_repair`` a single repair crew serves both units — the
    dependency RBDs cannot express and the reason these leaves are CTMCs.
    """
    # Imported here: the chain stack loads scipy, which the compiled
    # evaluator of this case study never needs.
    from ..markov.ctmc import CTMC, MarkovDependabilityModel

    chain = CTMC()
    chain.add_transition(2, 1, 2.0 * failure_rate)
    chain.add_transition(1, 0, failure_rate)
    chain.add_transition(1, 2, repair_rate)
    chain.add_transition(0, 1, repair_rate if shared_repair else 2.0 * repair_rate)
    return MarkovDependabilityModel(chain, up_states=[2, 1], initial=2)


def build_raid_pair(params: BladeCenterParameters) -> MarkovDependabilityModel:
    """RAID-1 disk pair: fast rebuild after a single failure."""
    from ..markov.ctmc import CTMC, MarkovDependabilityModel

    chain = CTMC()
    chain.add_transition(2, 1, 2.0 * params.disk_failure_rate)
    chain.add_transition(1, 0, params.disk_failure_rate)
    chain.add_transition(1, 2, params.raid_rebuild_rate)
    chain.add_transition(0, 1, params.blade_repair_rate)
    return MarkovDependabilityModel(chain, up_states=[2, 1], initial=2)


def build_blade_server(params: BladeCenterParameters) -> ReliabilityBlockDiagram:
    """One blade: CPU, memory, RAID-1 disks, dual NICs, OS in series."""
    raid = Component.fixed(
        "disks_raid1", build_raid_pair(params).steady_state_unavailability()
    )
    nic_pair = parallel(
        Component.from_rates("nic1", params.nic_failure_rate, params.blade_repair_rate),
        Component.from_rates("nic2", params.nic_failure_rate, params.blade_repair_rate),
    )
    return ReliabilityBlockDiagram(
        series(
            Component.from_rates("cpu", params.cpu_failure_rate, params.blade_repair_rate),
            Component.from_rates("memory", params.memory_failure_rate, params.blade_repair_rate),
            raid,
            nic_pair,
            Component.from_rates("os", params.software_failure_rate, params.software_repair_rate),
        )
    )


def _chassis_leaves(params: BladeCenterParameters) -> Dict[str, DependabilityModel]:
    return {
        "power": build_redundant_pair(params.power_failure_rate, params.chassis_repair_rate),
        "cooling": build_redundant_pair(params.blower_failure_rate, params.chassis_repair_rate),
        "management": build_redundant_pair(
            params.management_failure_rate, params.chassis_repair_rate
        ),
        "switch": build_redundant_pair(params.switch_failure_rate, params.chassis_repair_rate),
    }


def build_chassis(params: BladeCenterParameters) -> ReliabilityBlockDiagram:
    """Chassis infrastructure: redundant subsystems + midplane in series."""
    leaves = _chassis_leaves(params)
    blocks = [
        Component.fixed(name, model.steady_state_unavailability())
        for name, model in leaves.items()
    ]
    blocks.append(
        Component.from_rates(
            "midplane", params.midplane_failure_rate, params.midplane_repair_rate
        )
    )
    return ReliabilityBlockDiagram(series(*blocks))


def build_bladecenter(params: BladeCenterParameters = BladeCenterParameters()) -> HierarchicalModel:
    """The full two-level hierarchy as a :class:`HierarchicalModel`.

    Submodels: ``chassis`` and ``blade`` export availabilities that the
    ``system`` RBD imports (one blade in series with its chassis — the
    per-blade service view the IBM paper reports).
    """
    hierarchy = HierarchicalModel()
    hierarchy.add_submodel(
        Submodel(
            "chassis",
            lambda _params: build_chassis(params),
            exports={"availability": export_availability},
        )
    )
    hierarchy.add_submodel(
        Submodel(
            "blade",
            lambda _params: build_blade_server(params),
            exports={"availability": export_availability},
        )
    )

    def build_system(imports) -> ReliabilityBlockDiagram:
        return ReliabilityBlockDiagram(
            series(
                Component.fixed("chassis", 1.0 - imports["chassis_availability"]),
                Component.fixed("blade", 1.0 - imports["blade_availability"]),
            )
        )

    hierarchy.add_submodel(
        Submodel(
            "system",
            build_system,
            imports={
                "chassis_availability": ("chassis", "availability"),
                "blade_availability": ("blade", "availability"),
            },
            exports={"availability": export_availability},
        )
    )
    return hierarchy


def resolve_parameters(assignment: Mapping[str, float]) -> BladeCenterParameters:
    """Validate a (partial) assignment and merge it over the defaults.

    Values are validated up front (finite, non-negative) so that a bad
    draw from a heavy-tailed prior fails loudly as a
    :class:`~repro.exceptions.ModelDefinitionError` — which a
    :class:`~repro.robust.FaultPolicy` can then isolate to that one
    draw — instead of surfacing as a cryptic solver failure.
    """
    for name, value in assignment.items():
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ModelDefinitionError(
                f"BladeCenter parameter {name!r} must be finite and non-negative, "
                f"got {value}"
            )
    try:
        return replace(BladeCenterParameters(), **dict(assignment))
    except TypeError:
        known = {f for f in BladeCenterParameters.__dataclass_fields__}
        unknown = sorted(set(assignment) - known)
        raise ModelDefinitionError(
            f"unknown BladeCenter parameter(s) {unknown}; valid names: {sorted(known)}"
        ) from None


def evaluate_availability(assignment: Mapping[str, float]) -> float:
    """Steady-state system availability for a (partial) parameter assignment.

    Keys are :class:`BladeCenterParameters` field names; unassigned
    fields keep their published defaults.  Module-level and picklable —
    the engine-friendly evaluator for parameter sweeps
    (``propagate_uncertainty(evaluate_availability, ..., n_jobs=4)``).

    Sweeps should prefer the compiled form
    (``repro.compile.compile_model(evaluate_availability)``), which the
    engine auto-substitutes: it produces bit-identical results while
    building the hierarchy's structure only once.
    """
    params = resolve_parameters(assignment)
    solution = build_bladecenter(params).solve()
    return float(solution.value("system", "availability"))


evaluate_availability.__compiles_to__ = "repro.compile.model:CompiledBladeCenter"


def downtime_budget(
    params: BladeCenterParameters = BladeCenterParameters(),
) -> List[Tuple[str, float, float]]:
    """The E19 table: per-subsystem availability and downtime min/year.

    Rows are the chassis leaf subsystems, the midplane, the blade server,
    and the composed system.
    """
    from ..core.model import MINUTES_PER_YEAR

    rows: List[Tuple[str, float, float]] = []
    for name, model in _chassis_leaves(params).items():
        avail = model.steady_state_availability()
        rows.append((name, avail, (1.0 - avail) * MINUTES_PER_YEAR))
    midplane = Component.from_rates(
        "midplane", params.midplane_failure_rate, params.midplane_repair_rate
    )
    avail = midplane.steady_state_availability()
    rows.append(("midplane", avail, (1.0 - avail) * MINUTES_PER_YEAR))
    blade = build_blade_server(params)
    avail = blade.steady_state_availability()
    rows.append(("blade server", avail, (1.0 - avail) * MINUTES_PER_YEAR))
    solution = build_bladecenter(params).solve()
    avail = solution.value("system", "availability")
    rows.append(("system (chassis + blade)", avail, (1.0 - avail) * MINUTES_PER_YEAR))
    return rows
