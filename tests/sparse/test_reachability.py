"""CSR reachability vs the independent dict-built reference BFS.

The load-bearing contract: :func:`build_sparse_reachability` replicates
the naive tangible BFS of ``tests/petrinet/reference_reachability.py``
exactly — same state order, same triplet order, hence *bit-identical*
CSR generators, the same vanishing count and the same initial
distribution — on every SRN shape the library ships (plain timed nets,
marking-dependent rates, immediate transitions with vanishing
elimination, vanishing loops, vanishing initial markings, guards and
inhibitors).
"""

import numpy as np
import pytest

from repro.exceptions import StateSpaceError
from repro.markov import MarkovDependabilityModel
from repro.petrinet import PetriNet, SRNDependabilityModel, StochasticRewardNet
from repro.petrinet.templates import (
    machine_repairman,
    queue_with_breakdowns,
    redundant_pool_with_coverage,
)
from repro.sparse import SparseCTMC, build_sparse_reachability
from tests.petrinet.reference_reachability import reference_reachability


def mm1k(K=5, lam=2.0, mu=3.0):
    net = PetriNet()
    net.add_place("queue", 0)
    net.add_timed_transition("arrive", rate=lam)
    net.add_output_arc("arrive", "queue")
    net.add_inhibitor_arc("arrive", "queue", K)
    net.add_timed_transition("serve", rate=mu)
    net.add_input_arc("serve", "queue")
    return net


def nfv_default():
    from repro.casestudies.nfvchain import NFVChainSpec, build_nfv_net

    return build_nfv_net(NFVChainSpec())


def escape_loop():
    """Weighted-retry vanishing loop: x ⇄ y immediates with an escape.

    The initial marking is vanishing, and the one timed transition leads
    back into it, so the BFS re-enters the initial vanishing marking.
    """
    net = PetriNet()
    net.add_place("x", 1)
    net.add_place("y", 0)
    net.add_place("out", 0)
    net.add_immediate_transition("xy", weight=1.0)
    net.add_input_arc("xy", "x")
    net.add_output_arc("xy", "y")
    net.add_immediate_transition("yx", weight=0.5)
    net.add_input_arc("yx", "y")
    net.add_output_arc("yx", "x")
    net.add_immediate_transition("escape", weight=0.5)
    net.add_input_arc("escape", "y")
    net.add_output_arc("escape", "out")
    net.add_timed_transition("back", rate=1.0)
    net.add_input_arc("back", "out")
    net.add_output_arc("back", "x")
    return net


def vanishing_initial():
    """The initial marking splits 3:1 over two tangible markings."""
    net = PetriNet()
    net.add_place("start", 1)
    net.add_place("a", 0)
    net.add_place("b", 0)
    net.add_immediate_transition("toA", weight=3.0)
    net.add_input_arc("toA", "start")
    net.add_output_arc("toA", "a")
    net.add_immediate_transition("toB", weight=1.0)
    net.add_input_arc("toB", "start")
    net.add_output_arc("toB", "b")
    net.add_timed_transition("loopA", rate=1.0)
    net.add_input_arc("loopA", "a")
    net.add_output_arc("loopA", "b")
    net.add_timed_transition("loopB", rate=2.0)
    net.add_input_arc("loopB", "b")
    net.add_output_arc("loopB", "a")
    return net


#: every SRN case-study shape in the library, one net builder each
CASE_STUDIES = {
    "mm1k": mm1k,
    "machine_repairman": lambda: machine_repairman(4, 0.1, 1.0, n_crews=2),
    "coverage_pool": lambda: redundant_pool_with_coverage(3, 0.01, 0.5, 0.95, 0.2),
    "queue_breakdowns": lambda: queue_with_breakdowns(5, 1.0, 2.0, 0.01, 0.5),
    "nfvchain": nfv_default,
    "escape_loop": escape_loop,
    "vanishing_initial": vanishing_initial,
}


@pytest.mark.parametrize("name", sorted(CASE_STUDIES))
class TestLazyEagerEquality:
    def test_generator_bit_identical(self, name):
        net = CASE_STUDIES[name]()
        reference = reference_reachability(net)
        built = build_sparse_reachability(net)
        qr = reference.chain.generator().tocsr()
        qb = built.chain.generator().tocsr()
        qr.sort_indices()
        qb.sort_indices()
        assert qr.shape == qb.shape
        assert qr.indptr.tobytes() == qb.indptr.tobytes()
        assert qr.indices.tobytes() == qb.indices.tobytes()
        assert qr.data.tobytes() == qb.data.tobytes()

    def test_state_order_and_counts_match(self, name):
        net = CASE_STUDIES[name]()
        reference = reference_reachability(net)
        built = build_sparse_reachability(net)
        assert len(built.tangible) == len(reference.tangible)
        assert built.n_vanishing == reference.n_vanishing
        assert list(built.chain.states) == list(reference.chain.states)

    def test_initial_distribution_matches(self, name):
        net = CASE_STUDIES[name]()
        reference = reference_reachability(net)
        built = build_sparse_reachability(net)
        assert built.initial == reference.initial
        expected = np.zeros(len(reference.tangible))
        for marking, prob in reference.initial.items():
            expected[reference.chain.index_of(marking)] = prob
        assert built.chain.initial_vector.tobytes() == expected.tobytes()

    def test_steady_state_measures_agree(self, name):
        net = CASE_STUDIES[name]()
        pi_dict = reference_reachability(net).chain.steady_state()
        srn = StochasticRewardNet(net)
        pi_vec = srn.steady_state()
        order = list(srn.chain.states)
        np.testing.assert_allclose(
            pi_vec, [pi_dict[m] for m in order], atol=1e-10
        )


class TestLazyMode:
    def test_lazy_yields_sparse_ctmc(self):
        result = build_sparse_reachability(mm1k(), 1000)
        assert isinstance(result.chain, SparseCTMC)
        assert isinstance(StochasticRewardNet(mm1k()).chain, SparseCTMC)

    def test_max_markings_guard(self):
        with pytest.raises(StateSpaceError):
            build_sparse_reachability(mm1k(K=50), max_markings=10)

    def test_memory_guard_fires(self):
        from repro.casestudies.nfvchain import NFVChainSpec, build_nfv_net

        big = build_nfv_net(NFVChainSpec(n_vnfs=5, replicas=6))
        with pytest.raises(StateSpaceError, match="memory"):
            build_sparse_reachability(big, memory_limit_mb=0.05, chunk=512)

    def test_up_predicate_becomes_mask(self):
        net = machine_repairman(3, 0.1, 1.0)
        result = build_sparse_reachability(net, up=lambda m: m["up"] >= 2)
        chain = result.chain
        assert chain.up_mask is not None
        expected = [m["up"] >= 2 for m in chain.states]
        assert chain.up_mask.tolist() == expected

    def test_labels_materialize_lazily_and_index(self):
        result = build_sparse_reachability(mm1k(K=3), 1000)
        chain = result.chain
        first = chain.states[0]
        assert first["queue"] == 0
        assert chain.index_of(first) == 0

    def test_initial_distribution_on_interned_states(self):
        result = build_sparse_reachability(mm1k(K=3), 1000)
        p0 = result.chain.initial_vector
        assert p0.sum() == pytest.approx(1.0)
        assert p0[0] == pytest.approx(1.0)


class TestLazySRNMeasures:
    """SRN measures vs the same measures on the reference dict chain."""

    def test_expected_tokens_matches_eager(self):
        net = mm1k()
        pi = reference_reachability(net).chain.steady_state()
        eager = sum(p * m["queue"] for m, p in pi.items())
        lazy = StochasticRewardNet(net).expected_tokens("queue")
        assert lazy == pytest.approx(eager, rel=1e-10)

    def test_throughput_matches_eager(self):
        net = queue_with_breakdowns(5, 1.0, 2.0, 0.01, 0.5)
        serve = net.transitions["serve"]
        pi = reference_reachability(net).chain.steady_state()
        eager = sum(
            p * serve.rate_in(m) for m, p in pi.items() if serve.is_enabled(m)
        )
        lazy = StochasticRewardNet(net).throughput("serve")
        assert lazy == pytest.approx(eager, rel=1e-10)

    def test_mean_time_to_matches_eager(self):
        net = machine_repairman(3, 0.1, 1.0)
        reference = reference_reachability(net)
        targets = [m for m in reference.chain.states if m["up"] == 0]
        eager = reference.chain.mean_time_to_absorption(
            reference.initial, absorbing=targets
        )
        lazy = StochasticRewardNet(net).mean_time_to(lambda m: m["up"] == 0)
        assert lazy == pytest.approx(eager, rel=1e-8)

    def test_interval_availability_matches_eager(self):
        net = machine_repairman(40, 0.1, 1.0)
        reference = reference_reachability(net)
        up = [m for m in reference.chain.states if m["up"] >= 20]
        eager = MarkovDependabilityModel(
            reference.chain, up, reference.initial
        ).interval_availability(10.0)
        lazy = SRNDependabilityModel(
            StochasticRewardNet(net), lambda m: m["up"] >= 20
        ).interval_availability(10.0)
        assert lazy == pytest.approx(eager, abs=1e-10)

    def test_transient_reward_matches_eager(self):
        net = mm1k()
        ts = [0.5, 2.0]
        reference = reference_reachability(net)
        rewards = np.array([float(m["queue"]) for m in reference.chain.states])
        eager = reference.chain.transient(ts, reference.initial) @ rewards
        lazy = StochasticRewardNet(net).transient_reward_rate(
            lambda m: float(m["queue"]), ts
        )
        np.testing.assert_allclose(lazy, eager, atol=1e-9)
