"""Unit tests for :class:`repro.sparse.SparseCTMC`."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ModelDefinitionError, SolverError
from repro.markov.ctmc import CTMC
from repro.sparse import SparseCTMC


def two_state(lam=1e-3, mu=0.1):
    q = sparse.csr_matrix(np.array([[-lam, lam], [mu, -mu]]))
    return SparseCTMC(
        q, labels=["up", "down"], up=np.array([True, False])
    )


def dict_two_state(lam=1e-3, mu=0.1):
    return CTMC().add_transition("up", "down", lam).add_transition("down", "up", mu)


class TestConstruction:
    def test_non_square_rejected(self):
        with pytest.raises(ModelDefinitionError, match="square"):
            SparseCTMC(sparse.csr_matrix(np.zeros((2, 3))))

    def test_label_count_mismatch_rejected(self):
        q = sparse.identity(3) * 0.0
        with pytest.raises(ModelDefinitionError, match="labels"):
            SparseCTMC(q, labels=["a", "b"])

    def test_bad_initial_rejected(self):
        q = two_state().generator()
        with pytest.raises(ModelDefinitionError, match="probability"):
            SparseCTMC(q, initial=np.array([0.7, 0.7]))
        with pytest.raises(ModelDefinitionError, match="shape"):
            SparseCTMC(q, initial=np.array([1.0]))

    def test_bad_up_mask_shape_rejected(self):
        q = two_state().generator()
        with pytest.raises(ModelDefinitionError, match="up mask"):
            SparseCTMC(q, up=np.array([True]))

    def test_structure_properties(self):
        chain = two_state()
        assert chain.n_states == 2
        assert chain.nnz == 4
        assert list(chain.states) == ["up", "down"]
        assert chain.index_of("down") == 1
        with pytest.raises(ModelDefinitionError, match="unknown state label"):
            chain.index_of("nope")

    def test_unlabeled_states_are_indices(self):
        chain = SparseCTMC(two_state().generator())
        assert list(chain.states) == [0, 1]
        assert chain.index_of(1) == 1
        with pytest.raises(ModelDefinitionError, match="out of range"):
            chain.index_of(5)

    def test_default_initial_mass_on_state_zero(self):
        p0 = two_state().initial_vector
        assert p0[0] == 1.0 and p0.sum() == 1.0


class TestSolving:
    def test_steady_state_matches_analytic(self):
        lam, mu = 1e-3, 0.1
        pi = two_state(lam, mu).steady_state()
        assert pi == pytest.approx([mu / (lam + mu), lam / (lam + mu)], rel=1e-10)

    def test_steady_state_report_carries_method(self):
        report = two_state().steady_state_report()
        assert report.method == "gth"  # auto lands on GTH for 2 states
        assert report.pi.shape == (2,)

    def test_explicit_method_routes_through_registry(self):
        chain = two_state()
        auto = chain.steady_state()
        for method in ("gth", "direct", "power", "gmres", "bicgstab"):
            assert chain.steady_state(method=method) == pytest.approx(auto, abs=1e-9)

    def test_transient_matches_dict_ctmc(self):
        ts = [0.0, 1.0, 10.0]
        probs = two_state().transient(ts)
        expected = dict_two_state().transient(ts, {"up": 1.0})
        np.testing.assert_allclose(probs, expected, atol=1e-10)

    def test_transient_initial_checked_like_constructor(self):
        chain = two_state()
        with pytest.raises(ModelDefinitionError, match="probability"):
            chain.transient(1.0, initial=np.array([0.5, 0.2]))
        with pytest.raises(ModelDefinitionError, match="shape"):
            chain.transient(1.0, initial=np.array([1.0]))

    def test_scalar_time_yields_vector(self):
        out = two_state().transient(1.0)
        assert out.shape == (2,)

    def test_transient_krylov_method(self):
        chain = two_state()
        uni = chain.transient([1.0, 5.0], method="uniformization")
        kry = chain.transient([1.0, 5.0], method="krylov")
        np.testing.assert_allclose(kry, uni, atol=1e-9)


class TestRewards:
    def test_probability_and_expected_reward(self):
        chain = two_state()
        pi = chain.steady_state()
        assert chain.probability("up") == pytest.approx(pi[0])
        assert chain.probability(["up", "down"]) == pytest.approx(1.0)
        assert chain.expected_reward(np.array([1.0, 0.0])) == pytest.approx(pi[0])

    def test_reward_shape_mismatch_rejected(self):
        with pytest.raises(ModelDefinitionError, match="reward vector"):
            two_state().expected_reward(np.ones(3))

    def test_availability_needs_up_mask(self):
        chain = SparseCTMC(two_state().generator())
        with pytest.raises(ModelDefinitionError, match="up mask"):
            chain.availability()

    def test_availability_matches_probability(self):
        chain = two_state()
        assert chain.availability() == pytest.approx(chain.probability("up"))

    def test_callable_evaluator_protocol(self):
        chain = two_state()
        assert chain() == pytest.approx(chain.availability())
        assert chain({}) == pytest.approx(chain.availability())
        with pytest.raises(SolverError, match="empty"):
            chain({"lam": 2.0})


class TestFreeze:
    def test_freeze_round_trip(self):
        source = dict_two_state()
        chain = source.freeze()
        assert isinstance(chain, SparseCTMC)
        assert list(chain.states) == ["up", "down"]
        assert (chain.generator() != source.generator()).nnz == 0
        expected = source.steady_state()
        got = dict(zip(chain.states, chain.steady_state()))
        for label in ("up", "down"):
            assert got[label] == pytest.approx(expected[label], rel=1e-10)
