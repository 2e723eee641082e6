"""Compiled Boeing fault tree: bit-identity, knob validation, the structure memo."""

import pickle
import random
import struct
import sys
import threading

import numpy as np
import pytest

from repro.casestudies import boeing
from repro.compile import compile_model
from repro.compile.model import CompiledBoeingTree
from repro.compile.structure import _VECTOR_MIN_POINTS
from repro.exceptions import ModelDefinitionError


def bits(x) -> str:
    return struct.pack("<d", float(x)).hex()


def random_assignment(rng: random.Random) -> dict:
    """A point that moves every knob, integer ones included, with some
    probability edge values (0, 1) and small structures so the differential
    test stays fast."""
    point = {}
    if rng.random() < 0.7:
        point["event_probability"] = rng.choice(
            [0.0, 1.0, rng.uniform(0.0, 1.0), 10 ** rng.uniform(-6, -1)]
        )
    if rng.random() < 0.7:
        point["shared_probability"] = rng.choice(
            [0.0, 1.0, rng.uniform(0.0, 1.0), 10 ** rng.uniform(-6, -1)]
        )
    if rng.random() < 0.5:
        point["n_sections"] = rng.randint(1, 10)
    if rng.random() < 0.4:
        point["events_per_section"] = rng.randint(2, 8)
    if rng.random() < 0.4:
        point["shared_events"] = rng.randint(1, 6)
    if rng.random() < 0.4:
        point["seed"] = rng.randint(0, 40)
    return point


POINTS = [random_assignment(random.Random(seed)) for seed in range(240)]


class TestDifferential:
    def test_registered_in_compile_model(self):
        compiled = compile_model(boeing.evaluate_availability)
        assert isinstance(compiled, CompiledBoeingTree)
        assert compile_model("boeing") is compiled

    def test_point_by_point_hex_matches_uncompiled(self):
        compiled = compile_model(boeing.evaluate_availability)
        assert {len(p) for p in POINTS} >= {0, 1, 2, 3}
        for point in POINTS:
            assert bits(compiled(point)) == bits(boeing.evaluate_availability(point)), point

    def test_batch_hex_matches_uncompiled(self):
        # one evaluate_many over many structures: grouped per structure key,
        # results land back in input order
        batch = compile_model("boeing").evaluate_many(POINTS)
        assert [bits(v) for v in batch] == [
            bits(boeing.evaluate_availability(p)) for p in POINTS
        ]

    def test_vectorized_and_scalar_bdd_passes_agree(self):
        # below _VECTOR_MIN_POINTS a BDD program walks nodes in Python
        # floats, from there on it runs the per-node vectorized loop; both
        # must equal BDD.prob
        rng = np.random.default_rng(3)
        n_points = _VECTOR_MIN_POINTS + 8
        points = [{"event_probability": float(p)} for p in rng.uniform(0, 0.05, n_points)]
        compiled = compile_model("boeing")
        reference = [bits(boeing.evaluate_availability(p)) for p in points]
        assert [bits(v) for v in compiled.evaluate_many(points)] == reference
        assert [bits(compiled(p)) for p in points] == reference


class TestKnobValidation:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"shared_events": 0}, "'shared_events' must be at least 1, got 0"),
            ({"events_per_section": 1}, "'events_per_section' must be at least 2, got 1"),
            ({"n_sections": 0}, "'n_sections' must be at least 1, got 0"),
            ({"n_sections": 1e9}, "the cap is 1024"),
            ({"events_per_section": 200, "n_sections": 6}, "1204 basic events"),
            ({"event_probability": 1.5}, "probability must be in [0, 1], got 1.5"),
            ({"shared_probability": 2.0, "event_probability": 3.0}, "got 2.0"),
            ({"seed": 2.5}, "must be a whole number"),
        ],
    )
    def test_compiled_and_uncompiled_raise_the_same(self, bad, message):
        with pytest.raises(ModelDefinitionError) as uncompiled_exc:
            boeing.evaluate_availability(bad)
        with pytest.raises(ModelDefinitionError) as compiled_exc:
            compile_model("boeing")(bad)
        assert str(compiled_exc.value) == str(uncompiled_exc.value)
        assert message in str(uncompiled_exc.value)

    def test_cap_admits_the_e05_scale_study(self):
        knobs = boeing.resolve_parameters({"n_sections": 64})
        assert 64 * 6 + 4 <= boeing.MAX_BASIC_EVENTS
        assert knobs["n_sections"] == 64


class TestStructureMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        boeing._STRUCTURE_CACHE.clear()
        yield
        boeing._STRUCTURE_CACHE.clear()

    def test_probability_only_points_share_one_structure(self):
        compiled = CompiledBoeingTree()
        compiled.evaluate_many(
            [{"event_probability": p} for p in np.linspace(1e-4, 1e-2, 12)]
            + [{"shared_probability": 1e-3}]
        )
        assert list(boeing._STRUCTURE_CACHE) == [(8, 6, 4, 2016)]

    def test_memo_is_bounded(self):
        compiled = CompiledBoeingTree()
        limit = boeing._STRUCTURE_CACHE_LIMIT
        for seed in range(limit + 3):
            compiled({"seed": seed, "n_sections": 2})
        assert len(boeing._STRUCTURE_CACHE) == limit
        # least recently used keys were evicted
        assert (2, 6, 4, 0) not in boeing._STRUCTURE_CACHE
        assert (2, 6, 4, limit + 2) in boeing._STRUCTURE_CACHE

    def test_memo_hit_refreshes_recency(self):
        compiled = CompiledBoeingTree()
        limit = boeing._STRUCTURE_CACHE_LIMIT
        for seed in range(limit):
            compiled({"seed": seed, "n_sections": 2})
        compiled({"seed": 0, "n_sections": 2, "event_probability": 0.01})
        compiled({"seed": limit, "n_sections": 2})
        assert (2, 6, 4, 0) in boeing._STRUCTURE_CACHE
        assert (2, 6, 4, 1) not in boeing._STRUCTURE_CACHE

    def test_pickled_clone_evaluates_the_same(self):
        compiled = CompiledBoeingTree()
        clone = pickle.loads(pickle.dumps(compiled))
        assert bits(clone({})) == bits(compiled({}))

    def test_concurrent_evaluate_many_gives_the_same_bytes(self):
        compiled = CompiledBoeingTree()
        points = POINTS[:60]
        expected = [bits(boeing.evaluate_availability(p)) for p in points]
        results = [None] * 4  # more threads than a 2-vCPU host has cores
        barrier = threading.Barrier(len(results))

        def work(k):
            barrier.wait()
            results[k] = [bits(v) for v in compiled.evaluate_many(points)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == expected for result in results)
        assert len(boeing._STRUCTURE_CACHE) <= boeing._STRUCTURE_CACHE_LIMIT

    def test_size_matches_the_registry_formula(self):
        size = compile_model("boeing").size()
        d = boeing.PARAMETER_DEFAULTS
        n_events = d["n_sections"] * d["events_per_section"] + d["shared_events"]
        assert size["n_components"] == n_events
        assert size["n_structure_functions"] == 1
