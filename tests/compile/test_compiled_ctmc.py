"""CompiledCTMC: frozen structure, bit-identical fills and solves.

Every test here asserts *exact* (bitwise) equality against the
uncompiled :class:`repro.CTMC` route — compilation is a performance
decision, never a numerical one.
"""

import pickle
import struct

import numpy as np
import pytest

from repro.compile import CompiledCTMC
from repro.compile.ctmc import Complement, Const, Param, Scaled, Times
from repro.exceptions import DistributionError, ModelDefinitionError
from repro.markov.ctmc import CTMC
from repro.markov.solvers import solve_transient

from .test_generated_chains import compiled_steady_state


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


def csr_bytes(q):
    return q.data.tobytes(), q.indices.tobytes(), q.indptr.tobytes()


def build_pair(lam: float, mu: float) -> CTMC:
    """2-unit redundant pair, shared repair — states added as [2, 1, 0]."""
    chain = CTMC()
    chain.add_transition(2, 1, 2.0 * lam)
    chain.add_transition(1, 0, lam)
    chain.add_transition(1, 2, mu)
    chain.add_transition(0, 1, mu)
    return chain


def compiled_pair() -> CompiledCTMC:
    return CompiledCTMC(
        [2, 1, 0],
        [
            (0, 1, Scaled(2.0, "lam")),
            (1, 2, Param("lam")),
            (1, 0, Param("mu")),
            (2, 1, Param("mu")),
        ],
    )


POINTS = [
    {"lam": 1e-3, "mu": 0.25},
    {"lam": 7.3e-5, "mu": 0.5},
    {"lam": 0.9, "mu": 1.1},
]


class TestFill:
    def test_fill_matches_uncompiled_generator(self):
        cc = compiled_pair()
        for values in POINTS:
            data = cc.fill(values)
            reference = build_pair(**values).generator()
            assert data.tobytes() == reference.data.tobytes()

    def test_csr_generator_matches_uncompiled(self):
        cc = compiled_pair()
        for values in POINTS:
            q = cc.generator(values)
            ref = build_pair(**values).generator()
            assert csr_bytes(q) == csr_bytes(ref)

    def test_duplicate_transitions_accumulate_in_order(self):
        chain = CTMC()
        chain.add_transition("a", "b", 0.3)
        chain.add_transition("a", "b", 0.4)
        chain.add_transition("b", "a", 1.0)
        cc = CompiledCTMC(
            ["a", "b"],
            [(0, 1, Const(0.3)), (0, 1, Const(0.4)), (1, 0, Const(1.0))],
        )
        assert csr_bytes(cc.generator({})) == csr_bytes(chain.generator())

    def test_fill_buffer_is_reused(self):
        cc = compiled_pair()
        first = cc.fill(POINTS[0])
        second = cc.fill(POINTS[1])
        assert first is second  # same preallocated workspace


class TestSolve:
    @pytest.mark.parametrize("method", ["gth", "direct", "power"])
    def test_steady_state_bit_identical(self, method):
        cc = compiled_pair()
        for values in POINTS:
            pi = compiled_steady_state(cc, values, method)
            reference = build_pair(**values).steady_state(method=method)
            for state in (2, 1, 0):
                assert bits(pi[cc.index_of(state)]) == bits(reference[state]), (
                    method,
                    values,
                    state,
                )

    def test_transient_bit_identical(self):
        cc = compiled_pair()
        times = np.array([0.0, 1.0, 10.0, 100.0])
        for values in POINTS:
            got = cc.transient(values, times, initial=2)
            chain = build_pair(**values)
            p0 = np.zeros(3)
            p0[chain.index_of(2)] = 1.0
            ref = solve_transient(chain.generator(), p0, times)
            assert got.tobytes() == ref.tobytes()


class TestErrors:
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), np.float64(-2.5)])
    def test_bad_rate_message_matches_add_transition(self, bad):
        cc = CompiledCTMC(["a", "b"], [(0, 1, Param("lam")), (1, 0, Const(1.0))])
        with pytest.raises(DistributionError) as compiled_exc:
            cc.fill({"lam": bad})
        with pytest.raises(DistributionError) as uncompiled_exc:
            CTMC().add_transition("a", "b", bad)
        assert str(compiled_exc.value) == str(uncompiled_exc.value)

    def test_self_loop_rejected(self):
        with pytest.raises(ModelDefinitionError, match="self-loops"):
            CompiledCTMC(["a", "b"], [(0, 0, Const(1.0))])

    def test_out_of_range_transition_rejected(self):
        with pytest.raises(ModelDefinitionError, match="outside"):
            CompiledCTMC(["a", "b"], [(0, 2, Const(1.0))])

    def test_duplicate_states_rejected(self):
        with pytest.raises(ModelDefinitionError, match="duplicate state labels"):
            CompiledCTMC(["a", "a"], [])

    def test_unknown_state_label(self):
        with pytest.raises(ModelDefinitionError, match="unknown state"):
            compiled_pair().index_of("nope")


class TestStructure:
    def test_from_ctmc_freezes_exact_generator(self):
        chain = build_pair(lam=2e-4, mu=0.125)
        cc = CompiledCTMC.from_ctmc(chain)
        assert cc.states == (2, 1, 0)
        assert csr_bytes(cc.generator({})) == csr_bytes(chain.generator())
        pi = cc.steady_state({})
        ref = chain.steady_state()
        for state in (2, 1, 0):
            assert bits(pi[cc.index_of(state)]) == bits(ref[state])

    def test_parameters_in_first_use_order(self):
        cc = CompiledCTMC(
            ["a", "b", "c"],
            [
                (0, 1, Times(Param("lam"), Complement(Param("c")))),
                (1, 2, Scaled(3.0, "mu")),
                (2, 0, Param("lam")),
            ],
        )
        assert cc.parameters == ("lam", "c", "mu")

    def test_pickle_roundtrip_bit_identical(self):
        cc = compiled_pair()
        cc.steady_state(POINTS[0])  # warm the thread-local workspace
        clone = pickle.loads(pickle.dumps(cc))
        for values in POINTS:
            assert (
                clone.steady_state(values).tobytes()
                == compiled_pair().steady_state(values).tobytes()
            )

    def test_n_states(self):
        assert compiled_pair().n_states == 3


class TestSolveMemo:
    def test_hit_returns_the_same_bits(self):
        cc = compiled_pair()
        first = cc.steady_state_cached(POINTS[0])
        again = cc.steady_state_cached(POINTS[0])
        assert again is first  # memo shares the array
        assert first.tobytes() == cc.steady_state(POINTS[0]).tobytes()

    def test_distinct_points_get_distinct_entries(self):
        cc = compiled_pair()
        a = cc.steady_state_cached(POINTS[0])
        b = cc.steady_state_cached(POINTS[1])
        assert a.tobytes() != b.tobytes()
        assert cc.memoized(POINTS[0]) and cc.memoized(POINTS[1])

    def test_validate_matches_fill_errors(self):
        cc = compiled_pair()
        bad = {"lam": -1.0, "mu": 0.5}
        with pytest.raises(DistributionError) as fill_exc:
            cc.fill(bad)
        with pytest.raises(DistributionError) as validate_exc:
            cc.validate(bad)
        assert str(validate_exc.value) == str(fill_exc.value)

    def test_failures_are_never_cached(self):
        cc = compiled_pair()
        bad = {"lam": -1.0, "mu": 0.5}
        for _ in range(2):  # second call must raise again, not hit a memo
            with pytest.raises(DistributionError):
                cc.steady_state_cached(bad)
        assert not cc._memo

    def test_memo_dropped_on_pickle(self):
        cc = compiled_pair()
        cc.steady_state_cached(POINTS[0])
        clone = pickle.loads(pickle.dumps(cc))
        assert clone._memo == {}
        assert (
            clone.steady_state_cached(POINTS[0]).tobytes()
            == cc.steady_state_cached(POINTS[0]).tobytes()
        )

    def test_memo_bounded(self):
        cc = compiled_pair()
        cc._MEMO_LIMIT = 4
        for k in range(10):
            cc.steady_state_cached({"lam": 1e-3 * (k + 1), "mu": 0.25})
        assert len(cc._memo) <= 4
