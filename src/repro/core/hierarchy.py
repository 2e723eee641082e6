"""Hierarchical model composition (system S15 in DESIGN.md).

The tutorial's scalability answer: instead of one monolithic state space,
build an *import graph* of submodels.  Lower-level models (CTMCs, SRNs)
capture local dependencies exactly and export scalar results — a
steady-state availability, an MTTF, an equivalent failure rate — which
upper-level models (typically RBDs or fault trees over independent
subsystems) import as parameters.  The IBM SIP/WebSphere and BladeCenter
availability models are built exactly this way.

When the import graph is acyclic the composition solves in one
topological pass; cyclic graphs (mutual dependencies such as shared
repair approximations) are delegated to
:class:`~repro.core.fixedpoint.FixedPointSolver`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from ..exceptions import HierarchyError
from .fixedpoint import FixedPointResult, FixedPointSolver
from .model import DependabilityModel

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "Submodel",
    "HierarchicalModel",
    "HierarchySolution",
    "export_availability",
    "export_unavailability",
    "export_mttf",
    "export_equivalent_failure_rate",
]

Builder = Callable[[Mapping[str, float]], DependabilityModel]
Export = Callable[[DependabilityModel], float]


def export_availability(model: DependabilityModel) -> float:
    """Standard export: steady-state availability."""
    return model.steady_state_availability()


def export_unavailability(model: DependabilityModel) -> float:
    """Standard export: steady-state unavailability."""
    return model.steady_state_unavailability()


def export_mttf(model: DependabilityModel) -> float:
    """Standard export: mean time to failure."""
    return model.mttf()


def export_equivalent_failure_rate(model: DependabilityModel) -> float:
    """Standard export: ``1 / MTTF`` — the exponential surrogate rate an
    upper-level model can assign to this subsystem."""
    return 1.0 / model.mttf()


class Submodel:
    """One node of the import graph.

    Parameters
    ----------
    name:
        Unique submodel name.
    build:
        Callable receiving the resolved import parameters and returning
        the concrete :class:`~repro.core.model.DependabilityModel`.
    exports:
        Mapping of export name → function extracting a scalar from the
        built model.
    imports:
        Mapping of builder parameter name → ``(submodel, export)`` pair
        naming where the value comes from.
    """

    def __init__(
        self,
        name: str,
        build: Builder,
        exports: Optional[Mapping[str, Export]] = None,
        imports: Optional[Mapping[str, Tuple[str, str]]] = None,
    ):
        self.name = str(name)
        self.build = build
        self.exports: Dict[str, Export] = dict(exports or {})
        self.imports: Dict[str, Tuple[str, str]] = dict(imports or {})


class HierarchySolution:
    """Resolved hierarchy: built models and every export value.

    Attributes
    ----------
    models:
        Mapping submodel name → built model.
    values:
        Mapping ``(submodel, export)`` → value.
    iterations:
        1 for acyclic graphs; the fixed-point iteration count otherwise.
    """

    def __init__(
        self,
        models: Dict[str, DependabilityModel],
        values: Dict[Tuple[str, str], float],
        iterations: int,
    ):
        self.models = models
        self.values = values
        self.iterations = iterations

    def value(self, submodel: str, export: str) -> float:
        """Export value of one submodel."""
        try:
            return self.values[(submodel, export)]
        except KeyError:
            raise HierarchyError(f"no export {export!r} on submodel {submodel!r}") from None

    def model(self, submodel: str) -> DependabilityModel:
        """The built model instance of one submodel."""
        try:
            return self.models[submodel]
        except KeyError:
            raise HierarchyError(f"unknown submodel {submodel!r}") from None


class HierarchicalModel:
    """A composition of submodels linked by parameter imports.

    Examples
    --------
    A CTMC leaf exporting availability into an RBD top level::

        hierarchy = HierarchicalModel()
        hierarchy.add_submodel(Submodel(
            "disk_pair", build_disk_ctmc,
            exports={"avail": export_availability}))
        hierarchy.add_submodel(Submodel(
            "system", build_system_rbd,
            imports={"disk_availability": ("disk_pair", "avail")}))
        solution = hierarchy.solve()
        solution.model("system").steady_state_availability()
    """

    def __init__(self):
        self._submodels: Dict[str, Submodel] = {}

    def add_submodel(self, submodel: Submodel) -> "HierarchicalModel":
        """Register a submodel (names must be unique)."""
        if submodel.name in self._submodels:
            raise HierarchyError(f"duplicate submodel name: {submodel.name!r}")
        self._submodels[submodel.name] = submodel
        return self

    # ----------------------------------------------------------- structure
    def _import_graph(self) -> nx.DiGraph:
        import networkx as nx

        graph = nx.DiGraph()
        for name in self._submodels:
            graph.add_node(name)
        for name, sub in self._submodels.items():
            for param, (source, export) in sub.imports.items():
                if source not in self._submodels:
                    raise HierarchyError(
                        f"submodel {name!r} imports from unknown submodel {source!r}"
                    )
                if export not in self._submodels[source].exports:
                    raise HierarchyError(
                        f"submodel {name!r} imports unknown export "
                        f"{export!r} of {source!r}"
                    )
                graph.add_edge(source, name, param=param)
        return graph

    def is_acyclic(self) -> bool:
        """True when the import graph has no cycles."""
        import networkx as nx

        return nx.is_directed_acyclic_graph(self._import_graph())

    # -------------------------------------------------------------- solve
    def solve(
        self,
        initial_guesses: Optional[Mapping[Tuple[str, str], float]] = None,
        tol: float = 1e-10,
        max_iterations: int = 200,
        damping: float = 0.0,
    ) -> HierarchySolution:
        """Resolve the hierarchy.

        Acyclic import graphs are solved in one topological pass.  Cyclic
        graphs are solved by fixed-point iteration over the export values
        on the cycles; ``initial_guesses`` seeds those values (default
        0.999 for each, a sensible availability-like prior).

        Parameters
        ----------
        tol, max_iterations, damping:
            Passed to :class:`~repro.core.fixedpoint.FixedPointSolver`
            when the graph is cyclic.
        """
        import networkx as nx

        graph = self._import_graph()
        if nx.is_directed_acyclic_graph(graph):
            return self._solve_acyclic(graph)
        return self._solve_cyclic(graph, initial_guesses, tol, max_iterations, damping)

    def _build_one(
        self, name: str, values: Dict[Tuple[str, str], float]
    ) -> Tuple[DependabilityModel, Dict[Tuple[str, str], float]]:
        sub = self._submodels[name]
        params = {
            param: values[(source, export)]
            for param, (source, export) in sub.imports.items()
        }
        model = sub.build(params)
        exports = {
            (name, export_name): float(extract(model))
            for export_name, extract in sub.exports.items()
        }
        return model, exports

    def _solve_acyclic(self, graph: nx.DiGraph) -> HierarchySolution:
        import networkx as nx

        values: Dict[Tuple[str, str], float] = {}
        models: Dict[str, DependabilityModel] = {}
        for name in nx.topological_sort(graph):
            model, exports = self._build_one(name, values)
            models[name] = model
            values.update(exports)
        return HierarchySolution(models, values, iterations=1)

    def _solve_cyclic(
        self,
        graph: nx.DiGraph,
        initial_guesses: Optional[Mapping[Tuple[str, str], float]],
        tol: float,
        max_iterations: int,
        damping: float,
    ) -> HierarchySolution:
        export_keys: List[Tuple[str, str]] = [
            (name, export)
            for name, sub in self._submodels.items()
            for export in sub.exports
        ]
        start = {
            f"{name}.{export}": (
                float(initial_guesses[(name, export)])
                if initial_guesses and (name, export) in initial_guesses
                else 0.999
            )
            for name, export in export_keys
        }

        def update(current: Mapping[str, float]) -> Dict[str, float]:
            values = {
                (name, export): current[f"{name}.{export}"] for name, export in export_keys
            }
            new_values: Dict[str, float] = {}
            for name in self._submodels:
                _model, exports = self._build_one(name, values)
                for (sub_name, export_name), value in exports.items():
                    new_values[f"{sub_name}.{export_name}"] = value
            return new_values

        solver = FixedPointSolver(
            update, start, tol=tol, max_iterations=max_iterations, damping=damping
        )
        result: FixedPointResult = solver.solve()

        values = {
            (name, export): result.values[f"{name}.{export}"] for name, export in export_keys
        }
        models: Dict[str, DependabilityModel] = {}
        for name in self._submodels:
            model, exports = self._build_one(name, values)
            models[name] = model
            values.update(exports)
        return HierarchySolution(models, values, iterations=result.iterations)
