"""Compiled case-study evaluators: the whole hierarchy, fill-and-solve.

:func:`compile_model` turns a sweepable model — one of the tutorial case
studies, a :class:`~repro.markov.CTMC`, an RBD or a fault tree — into a
picklable evaluator whose *structure* was built exactly once:

* every leaf CTMC becomes a :class:`~repro.compile.ctmc.CompiledCTMC`
  (frozen state order + sparsity, symbolic rates);
* every RBD layer becomes a
  :class:`~repro.compile.structure.CompiledStructureFunction`
  (vectorized bottom-up program);
* the hierarchy's solve order is baked into straight-line code.

The compiled evaluators replicate the uncompiled computation to the
bit: the same floating-point expressions in the same order, the same
validation checks raising the same exceptions with the same messages.
``evaluate_availability(a) == compile_model(evaluate_availability)(a)``
is an exact equality, not an approximate one — which is what lets the
engine substitute a compiled evaluator without perturbing cached or
previously published sweep results.

Case-study evaluator functions advertise their compiled form through a
``__compiles_to__ = "module:ClassName"`` attribute; the engine's
auto-compile hook and :func:`supports_compilation` key off it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_positive, check_probability
from ..exceptions import ModelDefinitionError
from .ctmc import CompiledCTMC, Complement, Param, Scaled, Times
from .structure import CompiledStructureFunction

__all__ = [
    "CompiledEvaluator",
    "CompiledBladeCenter",
    "CompiledCiscoRouter",
    "CompiledSunPlatform",
    "compile_model",
    "supports_compilation",
]


def _exp_steady_up(failure_rate: float, repair_rate: float) -> float:
    """Up-probability of an exponential component, uncompiled route.

    Replicates ``Component.from_rates(...)`` validation followed by the
    ``1 - (1 - MTTF / (MTTF + MTTR))`` chain the RBD evaluation applies.
    """
    f = check_positive(failure_rate, "failure_rate")
    r = check_positive(repair_rate, "repair_rate")
    mttf = 1.0 / f
    mttr = 1.0 / r
    ssa = mttf / (mttf + mttr)
    return 1.0 - (1.0 - ssa)


def _fixed_up(unavailability: float) -> float:
    """Up-probability of a fixed-probability component.

    ``Component.fixed`` validates, then the RBD asks for
    ``1 - failure_probability = 1 - (1 - (1 - p))``; the full complement
    chain is replicated literally to stay bit-identical.
    """
    check_probability(unavailability)
    return 1.0 - (1.0 - (1.0 - unavailability))


class CompiledEvaluator:
    """Base class of compiled, picklable batch evaluators.

    Subclasses freeze a model's structure at construction and implement
    :meth:`evaluate_many`; ``__call__`` is the engine-compatible
    single-assignment form.  ``__ship_once__`` marks the object for the
    process executor's ship-once initializer path (the evaluator is
    pickled once per worker instead of once per task chunk).
    """

    __ship_once__ = True

    #: parameter names the evaluator accepts (dataclass field names)
    parameters: Tuple[str, ...] = ()

    def __call__(self, assignment: Mapping[str, float]) -> float:
        return float(self.evaluate_many([assignment])[0])

    def evaluate_many(self, assignments: Sequence[Mapping[str, float]]) -> np.ndarray:
        """Evaluate a whole batch; default is the per-point loop."""
        raise NotImplementedError

    def size(self) -> Dict[str, int]:
        """Model-scale metadata: aggregate state/component counts.

        Walks the evaluator's frozen structure and sums what it finds —
        ``n_states`` over every embedded :class:`CompiledCTMC` (plain
        attributes and dict values, the layouts the case-study
        evaluators use), ``n_components`` over every
        :class:`CompiledStructureFunction` — plus ``n_chains`` /
        ``n_structure_functions`` counts.  This is the introspectable
        answer to "how big is this model?" that benchmark notes used to
        bury; the serving registry republishes it per model.
        """
        n_states = n_chains = n_components = n_sfs = 0

        def visit(value) -> None:
            nonlocal n_states, n_chains, n_components, n_sfs
            if isinstance(value, CompiledCTMC):
                n_states += value.n_states
                n_chains += 1
            elif isinstance(value, CompiledStructureFunction):
                n_components += value.n_components
                n_sfs += 1

        for attr_value in vars(self).values():
            visit(attr_value)
            if isinstance(attr_value, dict):
                for inner in attr_value.values():
                    visit(inner)
        return {
            "n_states": n_states,
            "n_chains": n_chains,
            "n_components": n_components,
            "n_structure_functions": n_sfs,
        }

    def describe(self) -> Dict[str, object]:
        """Advertised metadata: evaluator class, parameters and size."""
        return {
            "evaluator": type(self).__name__,
            "parameters": list(self.parameters),
            "size": self.size(),
        }


class CompiledBladeCenter(CompiledEvaluator):
    """Compiled IBM BladeCenter hierarchy (case study E19).

    Structure compiled once: the 2-unit redundant-pair CTMC pattern
    (instantiated symbolically for power / cooling / management /
    switch), the RAID-1 pair CTMC, and the three RBD layers (chassis,
    blade, system) as vectorized structure functions.  Per point, only
    ``fill`` + GTH solves + the vectorized products run.
    """

    #: chassis leaves: (name, failure-rate parameter)
    _CHASSIS_LEAVES: Tuple[Tuple[str, str], ...] = (
        ("power", "power_failure_rate"),
        ("cooling", "blower_failure_rate"),
        ("management", "management_failure_rate"),
        ("switch", "switch_failure_rate"),
    )

    def __init__(self):
        from ..casestudies.bladecenter import BladeCenterParameters

        self.parameters = tuple(BladeCenterParameters.__dataclass_fields__)
        # 2-unit redundant pair, shared repair: states [2, 1, 0].
        self._pairs: Dict[str, CompiledCTMC] = {
            name: CompiledCTMC(
                [2, 1, 0],
                [
                    (0, 1, Scaled(2.0, frate)),
                    (1, 2, Param(frate)),
                    (1, 0, Param("chassis_repair_rate")),
                    (2, 1, Param("chassis_repair_rate")),
                ],
            )
            for name, frate in self._CHASSIS_LEAVES
        }
        self._raid = CompiledCTMC(
            [2, 1, 0],
            [
                (0, 1, Scaled(2.0, "disk_failure_rate")),
                (1, 2, Param("disk_failure_rate")),
                (1, 0, Param("raid_rebuild_rate")),
                (2, 1, Param("blade_repair_rate")),
            ],
        )
        leaf = lambda i: ("leaf", i)  # noqa: E731 - spec shorthand
        self._chassis_sf = CompiledStructureFunction(
            ["power", "cooling", "management", "switch", "midplane"],
            tree=("series", tuple(leaf(i) for i in range(5))),
        )
        self._blade_sf = CompiledStructureFunction(
            ["cpu", "memory", "disks_raid1", "nic1", "nic2", "os"],
            tree=(
                "series",
                (leaf(0), leaf(1), leaf(2), ("parallel", (leaf(3), leaf(4))), leaf(5)),
            ),
        )
        self._system_sf = CompiledStructureFunction(
            ["chassis", "blade"], tree=("series", (leaf(0), leaf(1)))
        )

    @staticmethod
    def _pair_up_states_sum(pi: np.ndarray) -> float:
        # up states {2, 1} -> indices 0, 1 in the frozen order
        return float(pi[0]) + float(pi[1])

    def _point_rows(self, params) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Chassis and blade component up-probability rows for one point.

        Check order mirrors the uncompiled hierarchy solve: all four
        chassis-pair rate validations first (the ``_chassis_leaves``
        dict is built before any solve), then each pair's solve +
        probability check, then midplane, then the blade layer.
        """
        values = params.__dict__
        for name, _ in self._CHASSIS_LEAVES:
            pair = self._pairs[name]
            if not pair.memoized(values):
                pair.validate(values)  # rate validation pass
        chassis_row = []
        for name, _ in self._CHASSIS_LEAVES:
            pi = self._pairs[name].steady_state_cached(values)
            unavail = 1.0 - self._pair_up_states_sum(pi)
            chassis_row.append(_fixed_up(unavail))
        chassis_row.append(
            _exp_steady_up(params.midplane_failure_rate, params.midplane_repair_rate)
        )
        # blade layer: raid pair first, then NICs, CPU, memory, OS (the
        # order build_blade_server constructs and validates them in)
        pi = self._raid.steady_state_cached(values)
        raid_unavail = 1.0 - self._pair_up_states_sum(pi)
        p_raid = _fixed_up(raid_unavail)
        p_nic1 = _exp_steady_up(params.nic_failure_rate, params.blade_repair_rate)
        p_nic2 = _exp_steady_up(params.nic_failure_rate, params.blade_repair_rate)
        p_cpu = _exp_steady_up(params.cpu_failure_rate, params.blade_repair_rate)
        p_memory = _exp_steady_up(params.memory_failure_rate, params.blade_repair_rate)
        p_os = _exp_steady_up(params.software_failure_rate, params.software_repair_rate)
        blade_row = (p_cpu, p_memory, p_raid, p_nic1, p_nic2, p_os)
        return tuple(chassis_row), blade_row

    def evaluate_many(self, assignments: Sequence[Mapping[str, float]]) -> np.ndarray:
        from ..casestudies.bladecenter import resolve_parameters

        params_list = [resolve_parameters(a) for a in assignments]
        n = len(params_list)
        chassis_P = np.empty((n, 5))
        blade_P = np.empty((n, 6))
        for i, params in enumerate(params_list):
            chassis_row, blade_row = self._point_rows(params)
            chassis_P[i] = chassis_row
            blade_P[i] = blade_row
        a_chassis = self._chassis_sf.evaluate(chassis_P)
        a_blade = self._blade_sf.evaluate(blade_P)
        # system layer: per-point scalar pass so the fixed-component
        # probability checks fire in the uncompiled order
        out = np.empty(n)
        for i in range(n):
            p_ch = _fixed_up(1.0 - float(a_chassis[i]))
            p_bl = _fixed_up(1.0 - float(a_blade[i]))
            row = np.array([[p_ch, p_bl]])
            out[i] = float(self._system_sf.evaluate(row)[0])
        return out


class CompiledCiscoRouter(CompiledEvaluator):
    """Compiled Cisco GSR router (case study E18, redundant processor).

    One 5-state processor CTMC with symbolic coverage-split rates plus a
    six-component series RBD (processor, fabric, four line cards).
    """

    def __init__(self):
        from ..casestudies.cisco import CiscoParameters

        self.parameters = tuple(CiscoParameters.__dataclass_fields__)
        lam = Param("processor_failure_rate")
        # states in first-seen order: "2", "failover", "uncovered", "1", "0"
        self._processor = CompiledCTMC(
            ["2", "failover", "uncovered", "1", "0"],
            [
                (0, 1, Times(lam, Param("coverage"))),
                (0, 2, Times(lam, Complement(Param("coverage")))),
                (0, 3, lam),
                (1, 3, Param("failover_rate")),
                (2, 3, Param("uncovered_recovery_rate")),
                (3, 4, lam),
                (3, 0, Param("processor_repair_rate")),
                (4, 3, Param("processor_repair_rate")),
            ],
        )
        leaf = lambda i: ("leaf", i)  # noqa: E731 - spec shorthand
        names = ["processor", "fabric"] + [f"linecard{k}" for k in range(4)]
        self._router_sf = CompiledStructureFunction(
            names, tree=("series", tuple(leaf(i) for i in range(6)))
        )

    def _point_row(self, params) -> Tuple[float, ...]:
        values = params.__dict__
        pi = self._processor.steady_state_cached(values)
        # up states {"2", "1"} -> indices 0 and 3
        unavail = 1.0 - (float(pi[0]) + float(pi[3]))
        p_proc = _fixed_up(unavail)
        p_fabric = _exp_steady_up(params.fabric_failure_rate, params.fabric_repair_rate)
        linecards = tuple(
            _exp_steady_up(params.linecard_failure_rate, params.linecard_repair_rate)
            for _ in range(4)
        )
        return (p_proc, p_fabric) + linecards

    def evaluate_many(self, assignments: Sequence[Mapping[str, float]]) -> np.ndarray:
        from ..casestudies.cisco import resolve_parameters

        params_list = [resolve_parameters(a) for a in assignments]
        P = np.empty((len(params_list), 6))
        for i, params in enumerate(params_list):
            P[i] = self._point_row(params)
        return self._router_sf.evaluate(P)


class CompiledSunPlatform(CompiledEvaluator):
    """Compiled Sun carrier-grade platform (case study E20).

    Compiles the **immediate**-repair policy, the one
    ``sun.evaluate_availability`` sweeps.  The deferred policy has a
    three-state up set whose summation order in the uncompiled model
    depends on set iteration, so it is deliberately left uncompiled
    rather than risking a bit divergence.
    """

    def __init__(self):
        from ..casestudies.sun import SunParameters

        self.parameters = tuple(SunParameters.__dataclass_fields__)
        lam = Param("failure_rate")
        # states in first-seen order: "2", "failover", "uncovered", "1", "0"
        self._platform = CompiledCTMC(
            ["2", "failover", "uncovered", "1", "0"],
            [
                (0, 1, Times(lam, Param("coverage"))),
                (0, 2, Times(lam, Complement(Param("coverage")))),
                (1, 3, Param("failover_rate")),
                (2, 3, Param("uncovered_recovery_rate")),
                (0, 3, lam),
                (3, 0, Param("repair_rate")),
                (3, 4, lam),
                (4, 3, Param("repair_rate")),
            ],
        )

    def evaluate_many(self, assignments: Sequence[Mapping[str, float]]) -> np.ndarray:
        from ..casestudies.sun import resolve_parameters

        out = np.empty(len(assignments))
        for i, assignment in enumerate(assignments):
            params = resolve_parameters(assignment)
            pi = self._platform.steady_state_cached(params.__dict__)
            # up states {"2", "1"} -> indices 0 and 3
            out[i] = float(pi[0]) + float(pi[3])
        return out


#: name -> "module:Class" spec of the compiled evaluator, for
#: compile_model("bladecenter") etc.  Lazy string specs (same format as
#: ``__compiles_to__``) so entries may live in modules that import this
#: one — ``repro.compile.sparse`` does.
_NAMED_MODELS: Dict[str, str] = {
    "bladecenter": "repro.compile.model:CompiledBladeCenter",
    "cisco": "repro.compile.model:CompiledCiscoRouter",
    "sun": "repro.compile.model:CompiledSunPlatform",
    "nfvchain": "repro.compile.sparse:CompiledNFVChain",
}

#: per-class singleton cache: compiling the same model twice reuses the
#: already-built structure (the whole point of the subsystem)
_INSTANCES: Dict[type, CompiledEvaluator] = {}


def _instance(cls: type) -> CompiledEvaluator:
    found = _INSTANCES.get(cls)
    if found is None:
        found = cls()
        _INSTANCES[cls] = found
    return found


def _resolve_spec(spec: str, owner) -> type:
    """Import a ``"module:Class"`` compiled-evaluator spec."""
    module_name, _, class_name = spec.partition(":")
    import importlib

    module = importlib.import_module(module_name)
    cls = getattr(module, class_name, None)
    if cls is None or not (isinstance(cls, type) and issubclass(cls, CompiledEvaluator)):
        raise ModelDefinitionError(
            f"{owner!r} advertises compiled form {spec!r}, "
            "which does not resolve to a CompiledEvaluator subclass"
        )
    return cls


def _compiled_class_of(target) -> Optional[type]:
    """Resolve a ``__compiles_to__ = "module:Class"`` advertisement."""
    spec = getattr(target, "__compiles_to__", None)
    if not isinstance(spec, str) or ":" not in spec:
        return None
    return _resolve_spec(spec, target)


def supports_compilation(target) -> bool:
    """True when :func:`compile_model` can compile ``target``.

    Covers already-compiled evaluators, callables advertising
    ``__compiles_to__``, the case-study names, the directly compilable
    model objects (CTMC / sparse CTMC / RBD / fault tree), and SRNs
    (whose chain is an already-frozen sparse CTMC).
    """
    from ..markov.ctmc import CTMC
    from ..nonstate.faulttree import FaultTree
    from ..nonstate.rbd import ReliabilityBlockDiagram
    from ..petrinet.srn import StochasticRewardNet
    from ..sparse.ctmc import SparseCTMC

    if isinstance(
        target,
        (
            CompiledEvaluator,
            CTMC,
            SparseCTMC,
            StochasticRewardNet,
            ReliabilityBlockDiagram,
            FaultTree,
        ),
    ):
        return True
    if isinstance(target, str):
        return target in _NAMED_MODELS
    return getattr(target, "__compiles_to__", None) is not None


def compile_model(target):
    """Compile a model or evaluator into its structure-frozen form.

    Parameters
    ----------
    target:
        One of

        * a :class:`CompiledEvaluator` — returned as-is;
        * a case-study evaluator function carrying ``__compiles_to__``
          (e.g. ``bladecenter.evaluate_availability``) — resolved to its
          compiled class, one shared instance per process;
        * a case-study name: ``"bladecenter"``, ``"cisco"``, ``"sun"``,
          ``"nfvchain"``;
        * a :class:`~repro.markov.CTMC` →
          :meth:`CompiledCTMC.from_ctmc`;
        * a :class:`~repro.sparse.SparseCTMC` — returned as-is: its CSR
          generator is already structure-and-value frozen, so it *is*
          its own compiled form (and carries ``__ship_once__`` for the
          process pool);
        * a :class:`~repro.petrinet.srn.StochasticRewardNet` — its
          generated chain, which is exactly such a sparse CTMC;
        * a :class:`~repro.nonstate.ReliabilityBlockDiagram` or
          :class:`~repro.nonstate.FaultTree` →
          :class:`CompiledStructureFunction`.

    Raises
    ------
    ModelDefinitionError
        When the target does not support compilation.
    """
    from ..markov.ctmc import CTMC
    from ..nonstate.faulttree import FaultTree
    from ..nonstate.rbd import ReliabilityBlockDiagram

    if isinstance(target, CompiledEvaluator):
        return target
    if isinstance(target, str):
        spec = _NAMED_MODELS.get(target)
        if spec is None:
            raise ModelDefinitionError(
                f"unknown model name {target!r}; known: {sorted(_NAMED_MODELS)}"
            )
        return _instance(_resolve_spec(spec, target))
    if isinstance(target, CTMC):
        return CompiledCTMC.from_ctmc(target)
    from ..petrinet.srn import StochasticRewardNet
    from ..sparse.ctmc import SparseCTMC

    if isinstance(target, StochasticRewardNet):
        return target.chain
    if isinstance(target, SparseCTMC):
        return target
    if isinstance(target, ReliabilityBlockDiagram):
        return CompiledStructureFunction.from_rbd(target)
    if isinstance(target, FaultTree):
        return CompiledStructureFunction.from_fault_tree(target)
    cls = _compiled_class_of(target)
    if cls is not None:
        return _instance(cls)
    raise ModelDefinitionError(
        f"cannot compile {target!r}: not a compiled evaluator, a known model "
        "name, a CTMC/RBD/FaultTree, and no __compiles_to__ advertisement"
    )
