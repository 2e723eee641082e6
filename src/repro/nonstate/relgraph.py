"""Reliability graphs (system S5 in DESIGN.md).

A reliability graph models the system as a directed graph whose edges are
components; the system is up while at least one source→target path
consists entirely of up edges.  Reliability graphs strictly generalize
series-parallel RBDs — the classic demonstration is the 5-component
bridge network, which no series-parallel diagram can express.

Two exact algorithms are provided:

* **BDD over minimal path sets** (production path): path sets are
  enumerated once, compiled to a BDD, and every quantification afterwards
  is linear in BDD size.  Repeated components across edges are handled
  exactly.
* **Factoring (conditioning)** on an edge component, the textbook
  algorithm: ``R = p_e R(G | e up) + (1-p_e) R(G | e down)`` — retained as
  an independent oracle and for the E04 benchmark.

Examples
--------
>>> from repro.nonstate import Component, ReliabilityGraph
>>> g = ReliabilityGraph("s", "t", directed=False)
>>> for name, (u, v) in {"e1": ("s", "a"), "e2": ("s", "b"), "e3": ("a", "t"),
...                      "e4": ("b", "t"), "e5": ("a", "b")}.items():
...     _ = g.add_edge(u, v, Component.fixed(name, 0.1))
>>> round(g.connectivity_probability({n: 0.9 for n in g.components}), 6)
0.97848
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.model import DependabilityModel, mttf_from_reliability
from ..exceptions import ModelDefinitionError
from .bdd import BDD
from .components import Component
from .cutsets import minimize_cut_sets

__all__ = ["ReliabilityGraph"]


class ReliabilityGraph(DependabilityModel):
    """Source-to-target connectivity model over component-labelled edges.

    Parameters
    ----------
    source, target:
        Node labels of the two terminals.
    directed:
        When False (default True), each added edge is inserted in both
        directions sharing the same component.
    """

    def __init__(self, source, target, directed: bool = True):
        if source == target:
            raise ModelDefinitionError("source and target must differ")
        self.source = source
        self.target = target
        self.directed = bool(directed)
        import networkx as nx

        self._graph = nx.MultiDiGraph()
        self._graph.add_node(source)
        self._graph.add_node(target)
        self._components: Dict[str, Component] = {}
        self._path_sets: Optional[List[FrozenSet[str]]] = None
        self._bdd: Optional[BDD] = None
        self._bdd_root: Optional[int] = None

    # ------------------------------------------------------------- build
    def add_edge(self, u, v, component: Component) -> "ReliabilityGraph":
        """Add an edge carried by ``component`` (shared names allowed)."""
        existing = self._components.get(component.name)
        if existing is not None and existing is not component:
            raise ModelDefinitionError(
                f"two distinct components share the name {component.name!r}"
            )
        self._components[component.name] = component
        self._graph.add_edge(u, v, component=component.name)
        if not self.directed:
            self._graph.add_edge(v, u, component=component.name)
        self._path_sets = None
        self._bdd = None
        self._bdd_root = None
        return self

    @property
    def components(self) -> Dict[str, Component]:
        """Mapping of component name to component."""
        return dict(self._components)

    # ---------------------------------------------------------- structure
    def minimal_path_sets(self) -> List[FrozenSet[str]]:
        """Minimal sets of components whose joint up-ness connects s to t."""
        if self._path_sets is None:
            raw: List[FrozenSet[str]] = []
            # Walk simple paths in the underlying simple digraph, expanding
            # parallel edges into alternative component choices.
            import networkx as nx

            simple = nx.DiGraph()
            parallel: Dict[Tuple, List[str]] = {}
            for u, v, data in self._graph.edges(data=True):
                simple.add_edge(u, v)
                parallel.setdefault((u, v), []).append(data["component"])
            if self.source in simple and self.target in simple:
                for path in nx.all_simple_paths(simple, self.source, self.target):
                    hops = list(zip(path[:-1], path[1:]))
                    choices: List[FrozenSet[str]] = [frozenset()]
                    for hop in hops:
                        choices = [
                            cs | {name} for cs in choices for name in parallel[hop]
                        ]
                    raw.extend(choices)
            self._path_sets = minimize_cut_sets(raw)
        return list(self._path_sets)

    def minimal_cut_sets(self) -> List[FrozenSet[str]]:
        """Minimal sets of components whose joint failure disconnects s from t."""
        manager, node = self._ensure_bdd()
        return manager.minimal_cut_sets(manager.dual(node))

    def _ensure_bdd(self) -> "tuple[BDD, int]":
        if self._bdd is None:
            path_sets = self.minimal_path_sets()
            order = list(dict.fromkeys(name for ps in path_sets for name in ps))
            # Components on no s-t path are irrelevant but must stay known.
            for name in self._components:
                if name not in order:
                    order.append(name)
            manager = BDD(order)
            node = manager.disjoin(
                manager.conjoin(manager.var(name) for name in sorted(ps)) for ps in path_sets
            )
            self._bdd = manager
            self._bdd_root = node
        return self._bdd, self._bdd_root

    # --------------------------------------------------------- evaluation
    def connectivity_probability(self, p_up: Mapping[str, float]) -> float:
        """Probability that source and target are connected, given up probabilities."""
        manager, node = self._ensure_bdd()
        missing = [name for name in manager.support(node) if name not in p_up]
        if missing:
            raise ModelDefinitionError(f"missing up-probabilities for components: {missing}")
        return manager.prob(node, dict(p_up))

    def connectivity_by_factoring(self, p_up: Mapping[str, float]) -> float:
        """Exact connectivity probability by the factoring (conditioning) algorithm.

        Conditions on one component at a time over the relevant component
        set; exponential in the worst case but a useful independent oracle
        for the BDD path (benchmark E04 compares both).
        """
        relevant = sorted({name for ps in self.minimal_path_sets() for name in ps})
        missing = [name for name in relevant if name not in p_up]
        if missing:
            raise ModelDefinitionError(f"missing up-probabilities for components: {missing}")
        path_sets = self.minimal_path_sets()

        def solve(sets: Sequence[FrozenSet[str]], names: Sequence[str]) -> float:
            if any(not s for s in sets):
                return 1.0  # an empty path set means s-t already connected
            if not sets:
                return 0.0
            name = names[0]
            rest = names[1:]
            if not any(name in s for s in sets):
                return solve(sets, rest)
            p = float(p_up[name])
            up_sets = minimize_cut_sets([s - {name} for s in sets])
            down_sets = [s for s in sets if name not in s]
            return p * solve(up_sets, rest) + (1.0 - p) * solve(down_sets, rest)

        return solve(path_sets, relevant)

    def _component_up(self, t, measure: str) -> Dict[str, float]:
        return {
            name: 1.0 - comp.failure_probability(t, measure)
            for name, comp in self._components.items()
        }

    def reliability(self, t):
        """Probability of s-t connectivity throughout a no-repair mission of length ``t``."""
        scalar = np.isscalar(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.array(
            [self.connectivity_probability(self._component_up(ti, "reliability")) for ti in ts]
        )
        return float(out[0]) if scalar else out

    def availability(self, t):
        """Instantaneous availability of the s-t connection."""
        scalar = np.isscalar(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.array(
            [self.connectivity_probability(self._component_up(ti, "availability")) for ti in ts]
        )
        return float(out[0]) if scalar else out

    def steady_state_availability(self) -> float:
        """Steady-state availability of the s-t connection."""
        return self.connectivity_probability(self._component_up(None, "steady"))

    def mttf(self) -> float:
        """Mean time to loss of s-t connectivity (no repair)."""
        return mttf_from_reliability(lambda t: float(np.asarray(self.reliability(t))))
