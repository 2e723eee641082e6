"""Unit tests for stochastic reward nets and the SRN dependability adapter."""

import numpy as np
import pytest

from repro.exceptions import ModelDefinitionError, StateSpaceError
from repro.petrinet import PetriNet, SRNDependabilityModel, StochasticRewardNet


def mm1k(K=5, lam=2.0, mu=3.0):
    net = PetriNet()
    net.add_place("queue", 0)
    net.add_timed_transition("arrive", rate=lam)
    net.add_output_arc("arrive", "queue")
    net.add_inhibitor_arc("arrive", "queue", K)
    net.add_timed_transition("serve", rate=mu)
    net.add_input_arc("serve", "queue")
    return net


def mm1k_analytic(K, lam, mu):
    rho = lam / mu
    return {n: (1 - rho) * rho**n / (1 - rho ** (K + 1)) for n in range(K + 1)}


class TestMeasures:
    def test_steady_state_mm1k(self):
        K, lam, mu = 5, 2.0, 3.0
        srn = StochasticRewardNet(mm1k(K, lam, mu))
        analytic = mm1k_analytic(K, lam, mu)
        pi = srn.steady_state()
        for marking, prob in zip(srn.chain.states, pi):
            assert prob == pytest.approx(analytic[marking["queue"]], rel=1e-10)

    def test_expected_tokens(self):
        K, lam, mu = 5, 2.0, 3.0
        srn = StochasticRewardNet(mm1k(K, lam, mu))
        analytic = mm1k_analytic(K, lam, mu)
        expected = sum(n * analytic[n] for n in range(K + 1))
        assert srn.expected_tokens("queue") == pytest.approx(expected)

    def test_probability_condition(self):
        K, lam, mu = 5, 2.0, 3.0
        srn = StochasticRewardNet(mm1k(K, lam, mu))
        analytic = mm1k_analytic(K, lam, mu)
        assert srn.probability(lambda m: m["queue"] == 0) == pytest.approx(analytic[0])

    def test_throughput_effective_arrival_rate(self):
        K, lam, mu = 5, 2.0, 3.0
        srn = StochasticRewardNet(mm1k(K, lam, mu))
        analytic = mm1k_analytic(K, lam, mu)
        # flow balance: throughput(serve) == effective arrival rate
        assert srn.throughput("serve") == pytest.approx(lam * (1 - analytic[K]))
        assert srn.throughput("arrive") == pytest.approx(srn.throughput("serve"))

    def test_throughput_immediate_rejected(self):
        net = mm1k()
        net.add_place("aux", 0)
        net.add_immediate_transition("imm", weight=1.0)
        net.add_input_arc("imm", "aux")
        srn = StochasticRewardNet(net)
        with pytest.raises(ModelDefinitionError):
            srn.throughput("imm")

    def test_unknown_transition_rejected(self):
        srn = StochasticRewardNet(mm1k())
        with pytest.raises(ModelDefinitionError):
            srn.throughput("zzz")

    def test_transient_reward_starts_at_initial(self):
        srn = StochasticRewardNet(mm1k())
        out = srn.transient_reward_rate(lambda m: float(m["queue"]), [0.0])
        assert out[0] == pytest.approx(0.0)

    def test_transient_converges_to_steady(self):
        srn = StochasticRewardNet(mm1k())
        out = srn.transient_reward_rate(lambda m: float(m["queue"]), [200.0])
        assert out[0] == pytest.approx(srn.expected_tokens("queue"), abs=1e-6)

    def test_mean_time_to_full(self):
        srn = StochasticRewardNet(mm1k(K=2, lam=1.0, mu=1.0))
        # birth-death 0->1->2 with backward service; MTTA from 0 to 2
        value = srn.mean_time_to(lambda m: m["queue"] == 2)
        # hand CTMC
        from repro.markov import CTMC

        chain = CTMC()
        chain.add_transition(0, 1, 1.0)
        chain.add_transition(1, 0, 1.0)
        chain.add_transition(1, 2, 1.0)
        assert value == pytest.approx(chain.mean_time_to_absorption(0, absorbing=[2]))

    def test_mean_time_to_unreachable_rejected(self):
        srn = StochasticRewardNet(mm1k(K=2))
        with pytest.raises(StateSpaceError):
            srn.mean_time_to(lambda m: m["queue"] == 99)


class TestDependabilityAdapter:
    def machine_repair(self, n=2, lam=0.1, mu=1.0):
        net = PetriNet().add_place("up", n).add_place("down", 0)
        net.add_timed_transition("fail", rate=lambda m: lam * m["up"])
        net.add_input_arc("fail", "up")
        net.add_output_arc("fail", "down")
        net.add_timed_transition("repair", rate=mu)  # single crew
        net.add_input_arc("repair", "down")
        net.add_output_arc("repair", "up")
        return StochasticRewardNet(net)

    def test_availability_matches_hand_ctmc(self):
        srn = self.machine_repair()
        model = SRNDependabilityModel(srn, up=lambda m: m["up"] >= 1)
        from repro.markov import CTMC

        chain = CTMC()
        chain.add_transition(2, 1, 0.2)
        chain.add_transition(1, 0, 0.1)
        chain.add_transition(1, 2, 1.0)
        chain.add_transition(0, 1, 1.0)
        pi = chain.steady_state()
        assert model.steady_state_availability() == pytest.approx(pi[2] + pi[1])

    def test_mttf_matches_hand_ctmc(self):
        srn = self.machine_repair()
        model = SRNDependabilityModel(srn, up=lambda m: m["up"] >= 1)
        from repro.markov import CTMC

        chain = CTMC()
        chain.add_transition(2, 1, 0.2)
        chain.add_transition(1, 0, 0.1)
        chain.add_transition(1, 2, 1.0)
        assert model.mttf() == pytest.approx(chain.mean_time_to_absorption(2))

    def test_reliability_monotone_decreasing(self):
        srn = self.machine_repair()
        model = SRNDependabilityModel(srn, up=lambda m: m["up"] >= 1)
        r = model.reliability(np.array([0.0, 5.0, 20.0, 100.0]))
        assert r[0] == pytest.approx(1.0)
        assert np.all(np.diff(r) <= 1e-12)

    def test_availability_at_least_reliability(self):
        srn = self.machine_repair()
        model = SRNDependabilityModel(srn, up=lambda m: m["up"] >= 1)
        t = 30.0
        assert model.availability(t) >= model.reliability(t) - 1e-12

    def test_no_up_marking_rejected(self):
        srn = self.machine_repair()
        with pytest.raises(ModelDefinitionError):
            SRNDependabilityModel(srn, up=lambda m: m["up"] >= 99)
