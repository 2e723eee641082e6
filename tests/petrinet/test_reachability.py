"""Unit tests for reachability analysis and vanishing elimination."""

import pytest

from repro.exceptions import StateSpaceError
from repro.petrinet import PetriNet, StochasticRewardNet
from repro.sparse import build_sparse_reachability


def mm1k(K=3, lam=1.0, mu=2.0):
    net = PetriNet()
    net.add_place("queue", 0)
    net.add_timed_transition("arrive", rate=lam)
    net.add_output_arc("arrive", "queue")
    net.add_inhibitor_arc("arrive", "queue", K)
    net.add_timed_transition("serve", rate=mu)
    net.add_input_arc("serve", "queue")
    return net


class TestTangibleGraph:
    def test_mm1k_state_count(self):
        result = build_sparse_reachability(mm1k(K=3))
        assert len(result.tangible) == 4
        assert result.n_vanishing == 0

    def test_generated_rates(self):
        result = build_sparse_reachability(mm1k(K=2, lam=1.5, mu=3.0))
        q = result.chain.generator()
        index = {m["queue"]: i for i, m in enumerate(result.chain.states)}
        assert q[index[0], index[1]] == pytest.approx(1.5)
        assert q[index[1], index[0]] == pytest.approx(3.0)

    def test_initial_distribution_tangible(self):
        result = build_sparse_reachability(mm1k())
        ((marking, prob),) = result.initial.items()
        assert marking["queue"] == 0
        assert prob == 1.0

    def test_max_markings_cap(self):
        # Unbounded net: arrivals with no inhibitor.
        net = PetriNet().add_place("p", 0)
        net.add_timed_transition("t", rate=1.0)
        net.add_output_arc("t", "p")
        with pytest.raises(StateSpaceError):
            build_sparse_reachability(net, max_markings=50)

    def test_marking_dependent_rates_generated(self):
        # machine-repair: n machines, rate proportional to up count
        n = 3
        net = PetriNet().add_place("up", n).add_place("down", 0)
        net.add_timed_transition("fail", rate=lambda m: 0.1 * m["up"])
        net.add_input_arc("fail", "up")
        net.add_output_arc("fail", "down")
        net.add_timed_transition("repair", rate=1.0)
        net.add_input_arc("repair", "down")
        net.add_output_arc("repair", "up")
        result = build_sparse_reachability(net)
        assert len(result.tangible) == n + 1
        q = result.chain.generator()
        index = {m["up"]: i for i, m in enumerate(result.chain.states)}
        assert q[index[3], index[2]] == pytest.approx(0.3)


class TestVanishingElimination:
    def coverage_net(self, c=0.9):
        """Failure branches immediately into covered/uncovered."""
        net = PetriNet()
        net.add_place("up", 1)
        net.add_place("deciding", 0)
        net.add_place("covered", 0)
        net.add_place("uncovered", 0)
        net.add_timed_transition("fail", rate=1.0)
        net.add_input_arc("fail", "up")
        net.add_output_arc("fail", "deciding")
        net.add_immediate_transition("cover", weight=c)
        net.add_input_arc("cover", "deciding")
        net.add_output_arc("cover", "covered")
        net.add_immediate_transition("miss", weight=1 - c)
        net.add_input_arc("miss", "deciding")
        net.add_output_arc("miss", "uncovered")
        net.add_timed_transition("fast", rate=10.0)
        net.add_input_arc("fast", "covered")
        net.add_output_arc("fast", "up")
        net.add_timed_transition("slow", rate=0.5)
        net.add_input_arc("slow", "uncovered")
        net.add_output_arc("slow", "up")
        return net

    def test_vanishing_markings_removed(self):
        result = build_sparse_reachability(self.coverage_net())
        assert result.n_vanishing == 1
        for marking in result.tangible:
            assert marking["deciding"] == 0

    def test_split_rates(self):
        c = 0.9
        result = build_sparse_reachability(self.coverage_net(c))
        q = result.chain.generator()
        states = list(result.chain.states)
        up = next(i for i, m in enumerate(states) if m["up"] == 1)
        covered = next(i for i, m in enumerate(states) if m["covered"] == 1)
        uncovered = next(i for i, m in enumerate(states) if m["uncovered"] == 1)
        assert q[up, covered] == pytest.approx(1.0 * c)
        assert q[up, uncovered] == pytest.approx(1.0 * (1 - c))

    def test_steady_state_matches_hand_ctmc(self):
        c = 0.9
        srn = StochasticRewardNet(self.coverage_net(c))
        from repro.markov import CTMC

        hand = CTMC()
        hand.add_transition("up", "cov", c)
        hand.add_transition("up", "unc", 1 - c)
        hand.add_transition("cov", "up", 10.0)
        hand.add_transition("unc", "up", 0.5)
        pi_hand = hand.steady_state()
        assert srn.probability(lambda m: m["up"] == 1) == pytest.approx(pi_hand["up"])

    def test_vanishing_initial_marking(self):
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
        net.add_timed_transition("loopB", rate=1.0)
        net.add_input_arc("loopB", "b")
        net.add_output_arc("loopB", "a")
        result = build_sparse_reachability(net)
        probs = {m: p for m, p in result.initial.items()}
        a_marking = next(m for m in probs if m["a"] == 1)
        assert probs[a_marking] == pytest.approx(0.75)

    def test_immediate_loop_resolved(self):
        # Immediate ping-pong with an escape: geometric series must sum.
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
        result = build_sparse_reachability(net)
        ((marking, prob),) = result.initial.items()
        assert marking["out"] == 1
        assert prob == pytest.approx(1.0)

    def test_timeless_trap_detected(self):
        net = PetriNet()
        net.add_place("x", 1)
        net.add_place("y", 0)
        net.add_immediate_transition("xy", weight=1.0)
        net.add_input_arc("xy", "x")
        net.add_output_arc("xy", "y")
        net.add_immediate_transition("yx", weight=1.0)
        net.add_input_arc("yx", "y")
        net.add_output_arc("yx", "x")
        with pytest.raises(StateSpaceError):
            build_sparse_reachability(net)
