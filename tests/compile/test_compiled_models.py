"""Compiled case-study evaluators: bit-identity and error-contract parity."""

import pickle
import struct

import numpy as np
import pytest

from repro.casestudies import bladecenter, boeing, cisco, sun
from repro.compile import compile_model, supports_compilation
from repro.compile.model import (
    CompiledBladeCenter,
    CompiledBoeingTree,
    CompiledCiscoRouter,
    CompiledEvaluator,
    CompiledSunPlatform,
)
from repro.exceptions import ModelDefinitionError
from repro.markov.ctmc import CTMC
from repro.nonstate.components import Component
from repro.nonstate.faulttree import AndGate, BasicEvent, FaultTree
from repro.nonstate.rbd import ReliabilityBlockDiagram, series


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


CASES = [
    pytest.param(
        bladecenter.evaluate_availability,
        CompiledBladeCenter,
        [
            {},
            {"disk_failure_rate": 3e-5},
            {"blower_failure_rate": 1e-4, "chassis_repair_rate": 0.05},
            {"software_failure_rate": 2e-3, "nic_failure_rate": 1e-6},
        ],
        id="bladecenter",
    ),
    pytest.param(
        cisco.evaluate_availability,
        CompiledCiscoRouter,
        [
            {},
            {"coverage": 0.9},
            {"processor_failure_rate": 1e-4, "failover_rate": 60.0},
            {"linecard_failure_rate": 5e-5, "fabric_repair_rate": 0.25},
        ],
        id="cisco",
    ),
    pytest.param(
        sun.evaluate_availability,
        CompiledSunPlatform,
        [
            {},
            {"coverage": 0.95},
            {"failure_rate": 1e-4, "repair_rate": 0.1},
            {"uncovered_recovery_rate": 0.5, "failover_rate": 360.0},
        ],
        id="sun",
    ),
    pytest.param(
        boeing.evaluate_availability,
        CompiledBoeingTree,
        [
            {},
            {"event_probability": 2e-3},
            {"shared_probability": 1e-2, "n_sections": 5},
            {"seed": 7, "events_per_section": 3, "shared_events": 2},
        ],
        id="boeing",
    ),
]

#: per class, the knob the error-parity cases perturb when it has no
#: ``coverage``
_STAND_IN = {
    CompiledSunPlatform: "failure_rate",
    CompiledBoeingTree: "event_probability",
}


class TestBitIdentity:
    @pytest.mark.parametrize("evaluate, cls, points", CASES)
    def test_single_point(self, evaluate, cls, points):
        compiled = compile_model(evaluate)
        assert isinstance(compiled, cls)
        for assignment in points:
            assert bits(compiled(assignment)) == bits(evaluate(assignment))

    @pytest.mark.parametrize("evaluate, cls, points", CASES)
    def test_evaluate_many(self, evaluate, cls, points):
        compiled = compile_model(evaluate)
        batch = compiled.evaluate_many(points)
        for k, assignment in enumerate(points):
            assert bits(batch[k]) == bits(evaluate(assignment))

    @pytest.mark.parametrize("evaluate, cls, points", CASES)
    def test_pickle_roundtrip(self, evaluate, cls, points):
        clone = pickle.loads(pickle.dumps(compile_model(evaluate)))
        for assignment in points:
            assert bits(clone(assignment)) == bits(evaluate(assignment))


class TestErrorParity:
    @pytest.mark.parametrize("evaluate, cls, points", CASES)
    @pytest.mark.parametrize(
        "bad", [{"coverage": -0.5}, {"coverage": float("nan")}, {"no_such_knob": 1.0}]
    )
    def test_same_exception_and_message(self, evaluate, cls, points, bad):
        if "coverage" in bad and "coverage" not in compile_model(evaluate).parameters:
            bad = {_STAND_IN.get(cls, "disk_failure_rate"): next(iter(bad.values()))}
        compiled = compile_model(evaluate)
        with pytest.raises(ModelDefinitionError) as uncompiled_exc:
            evaluate(bad)
        with pytest.raises(ModelDefinitionError) as compiled_exc:
            compiled(bad)
        assert str(compiled_exc.value) == str(uncompiled_exc.value)


class TestCompileModel:
    def test_names_resolve_to_singletons(self):
        for name, cls in (
            ("bladecenter", CompiledBladeCenter),
            ("boeing", CompiledBoeingTree),
            ("cisco", CompiledCiscoRouter),
            ("sun", CompiledSunPlatform),
        ):
            first = compile_model(name)
            assert isinstance(first, cls)
            assert compile_model(name) is first  # structure built once

    def test_evaluator_and_name_share_instance(self):
        assert compile_model("cisco") is compile_model(cisco.evaluate_availability)

    def test_compiled_passthrough(self):
        compiled = compile_model("sun")
        assert compile_model(compiled) is compiled

    def test_ctmc_dispatch(self):
        chain = CTMC()
        chain.add_transition("up", "down", 1e-3)
        chain.add_transition("down", "up", 0.1)
        compiled = compile_model(chain)
        pi = compiled.steady_state({})
        ref = chain.steady_state()
        assert bits(pi[compiled.index_of("up")]) == bits(ref["up"])

    def test_rbd_and_fault_tree_dispatch(self):
        rbd = ReliabilityBlockDiagram(
            series(Component.fixed("a", 0.01), Component.fixed("b", 0.02))
        )
        sf = compile_model(rbd)
        p_up = {"a": 0.97, "b": 0.96}
        assert bits(sf.prob(p_up)) == bits(rbd.system_up_probability(p_up))
        ev = BasicEvent.fixed("e", 0.1)
        tree = FaultTree(AndGate([ev, BasicEvent.fixed("f", 0.2)]))
        tf = compile_model(tree)
        q = {"e": 0.3, "f": 0.4}
        assert bits(tf.prob(q)) == bits(tree.top_event_probability(q))

    def test_unknown_name_raises(self):
        with pytest.raises(ModelDefinitionError, match="unknown model name"):
            compile_model("no_such_model")

    def test_uncompilable_target_raises(self):
        with pytest.raises(ModelDefinitionError, match="cannot compile"):
            compile_model(lambda a: 1.0)

    def test_bad_compiles_to_advertisement_raises(self):
        def fake(a):
            return 1.0

        fake.__compiles_to__ = "repro.exceptions:ModelDefinitionError"  # not an evaluator
        with pytest.raises(ModelDefinitionError, match="CompiledEvaluator"):
            compile_model(fake)

    def test_supports_compilation(self):
        assert supports_compilation(bladecenter.evaluate_availability)
        assert supports_compilation("sun")
        assert supports_compilation(compile_model("cisco"))
        assert supports_compilation(CTMC([("a")]))
        assert supports_compilation("boeing")
        assert not supports_compilation("no_such_model")
        assert not supports_compilation(lambda a: 1.0)

    def test_ship_once_flag(self):
        assert CompiledEvaluator.__ship_once__ is True
        assert compile_model("bladecenter").__ship_once__ is True

    def test_parameters_advertised(self):
        compiled = compile_model("bladecenter")
        assert compiled.parameters == tuple(
            bladecenter.BladeCenterParameters.__dataclass_fields__
        )


def random_points(cls, n, seed, spread=3.0):
    """``n`` seeded points perturbing every rate of ``cls`` (and coverage)."""
    evaluator = cls()
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        point = {}
        for name, default in zip(evaluator.parameters, evaluator._defaults):
            if name == "coverage":
                point[name] = float(rng.uniform(0.5, 0.999))
            elif rng.random() < 0.6:
                point[name] = float(default * np.exp(rng.uniform(-np.log(spread), np.log(spread))))
        points.append(point)
    return points


STACKED = [
    pytest.param(bladecenter.evaluate_availability, CompiledBladeCenter, id="bladecenter"),
    pytest.param(cisco.evaluate_availability, CompiledCiscoRouter, id="cisco"),
    pytest.param(sun.evaluate_availability, CompiledSunPlatform, id="sun"),
]


class TestStackedPath:
    """Batches of two or more points solve every leaf chain in one GTH
    stack; the per-point path stays the reference and the fallback."""

    @pytest.mark.parametrize("evaluate, cls", STACKED)
    def test_random_points_match_uncompiled(self, evaluate, cls, monkeypatch):
        points = random_points(cls, 40, seed=5)
        compiled = cls()
        monkeypatch.setattr(cls, "_evaluate_points", None)  # no fallback
        batch = compiled.evaluate_many(points)
        assert [bits(v) for v in batch] == [bits(evaluate(p)) for p in points]

    @pytest.mark.parametrize("cls, chain", [(CompiledCiscoRouter, "_processor"),
                                            (CompiledSunPlatform, "_platform")])
    def test_five_state_chain_stack_matches_gth_solve(self, cls, chain):
        """These chains have a nonzero ``a[0, 2]``, so a reordered
        reduction would show here where BladeCenter's pairs hide it."""
        from repro.markov.solvers import gth_solve

        compiled = getattr(cls(), chain)
        defaults = dict(zip(cls().parameters, cls()._defaults))
        points = [{**defaults, **p} for p in random_points(cls, 60, seed=9, spread=100.0)]
        stacked = compiled.steady_state_many(points)
        assert stacked.shape == (60, 5)
        for row, point in zip(stacked, points):
            assert row.tobytes() == gth_solve(compiled.generator(point).toarray()).tobytes()

    @pytest.mark.parametrize("evaluate, cls", STACKED)
    @pytest.mark.parametrize(
        "bad", [{"coverage": 1.5}, {"coverage": -0.5}, {"no_such_knob": 1.0}, {"cpu": "x"}]
    )
    def test_bad_point_mid_batch_raises_the_uncompiled_error(self, evaluate, cls, bad):
        if "coverage" in bad and "coverage" not in cls().parameters:
            # a zero rate fails check_rate inside the chain fill
            bad = {"raid_rebuild_rate": 0.0 if bad["coverage"] > 1 else -0.5}
        points = random_points(cls, 3, seed=1) + [bad] + random_points(cls, 3, seed=2)
        with pytest.raises(Exception) as uncompiled_exc:
            for point in points:
                evaluate(point)
        with pytest.raises(type(uncompiled_exc.value)) as compiled_exc:
            cls().evaluate_many(points)
        assert str(compiled_exc.value) == str(uncompiled_exc.value)

    @pytest.mark.parametrize("evaluate, cls", STACKED)
    def test_non_float_values_take_the_per_point_path(self, evaluate, cls):
        from fractions import Fraction

        name = cls().parameters[0]
        points = [{name: Fraction(1, 3000)}, {name: np.float32(2e-4)}, {name: 1}, {}]
        batch = cls().evaluate_many(points)
        assert [bits(v) for v in batch] == [bits(evaluate(p)) for p in points]
