"""Property-based tests for SRN generation (hypothesis).

Invariants: generated birth-death chains match the analytic stationary
distribution; token count is conserved in conservative nets; vanishing
markings never survive into the tangible chain; throughput balances at
steady state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov import CTMC
from repro.petrinet import PetriNet, StochasticRewardNet

rates = st.floats(min_value=0.05, max_value=20.0)


@st.composite
def birth_death_nets(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    lam = draw(rates)
    mu = draw(rates)
    net = PetriNet()
    net.add_place("queue", 0)
    net.add_timed_transition("arrive", rate=lam)
    net.add_output_arc("arrive", "queue")
    net.add_inhibitor_arc("arrive", "queue", k)
    net.add_timed_transition("serve", rate=mu)
    net.add_input_arc("serve", "queue")
    return net, k, lam, mu


@settings(max_examples=40, deadline=None)
@given(data=birth_death_nets())
def test_birth_death_matches_analytic(data):
    net, k, lam, mu = data
    srn = StochasticRewardNet(net)
    rho = lam / mu
    if abs(rho - 1.0) < 1e-9:
        return
    norm = sum(rho**n for n in range(k + 1))
    pi = srn.steady_state()
    for marking, prob in zip(srn.chain.states, pi):
        assert prob == pytest.approx(rho ** marking["queue"] / norm, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(data=birth_death_nets())
def test_flow_balance(data):
    net, k, lam, mu = data
    srn = StochasticRewardNet(net)
    # At steady state, arrival throughput equals service throughput.
    assert srn.throughput("arrive") == pytest.approx(srn.throughput("serve"), rel=1e-8)


@st.composite
def repairman_nets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    lam = draw(rates)
    mu = draw(rates)
    crews = draw(st.integers(min_value=1, max_value=3))
    net = PetriNet()
    net.add_place("up", n)
    net.add_place("down", 0)
    net.add_timed_transition("fail", rate=lambda m, l=lam: l * m["up"])
    net.add_input_arc("fail", "up")
    net.add_output_arc("fail", "down")
    net.add_timed_transition("repair", rate=lambda m, r=mu, c=crews: r * min(m["down"], c))
    net.add_input_arc("repair", "down")
    net.add_output_arc("repair", "up")
    return net, n, lam, mu, crews


@settings(max_examples=40, deadline=None)
@given(data=repairman_nets())
def test_token_conservation(data):
    net, n, _lam, _mu, _crews = data
    srn = StochasticRewardNet(net)
    for marking in srn.chain.states:
        assert marking["up"] + marking["down"] == n


@settings(max_examples=30, deadline=None)
@given(data=repairman_nets())
def test_repairman_matches_hand_ctmc(data):
    net, n, lam, mu, crews = data
    srn = StochasticRewardNet(net)
    chain = CTMC()
    for up in range(n, 0, -1):
        chain.add_transition(up, up - 1, lam * up)
    for up in range(0, n):
        chain.add_transition(up, up + 1, mu * min(n - up, crews))
    pi = chain.steady_state()
    for up in range(n + 1):
        assert srn.probability(lambda m, u=up: m["up"] == u) == pytest.approx(
            pi[up], abs=1e-10
        )


@st.composite
def coverage_nets(draw):
    c = draw(st.floats(min_value=0.05, max_value=0.95))
    fast = draw(rates)
    slow = draw(rates)
    fail = draw(rates)
    net = PetriNet()
    net.add_place("up", 1)
    net.add_place("deciding", 0)
    net.add_place("fast_fix", 0)
    net.add_place("slow_fix", 0)
    net.add_timed_transition("fail", rate=fail)
    net.add_input_arc("fail", "up")
    net.add_output_arc("fail", "deciding")
    net.add_immediate_transition("cover", weight=c)
    net.add_input_arc("cover", "deciding")
    net.add_output_arc("cover", "fast_fix")
    net.add_immediate_transition("miss", weight=1 - c)
    net.add_input_arc("miss", "deciding")
    net.add_output_arc("miss", "slow_fix")
    net.add_timed_transition("quick", rate=fast)
    net.add_input_arc("quick", "fast_fix")
    net.add_output_arc("quick", "up")
    net.add_timed_transition("slow", rate=slow)
    net.add_input_arc("slow", "slow_fix")
    net.add_output_arc("slow", "up")
    return net, c, fail, fast, slow


@settings(max_examples=40, deadline=None)
@given(data=coverage_nets())
def test_vanishing_elimination_matches_hand_split(data):
    net, c, fail, fast, slow = data
    srn = StochasticRewardNet(net)
    for marking in srn.chain.states:
        assert marking["deciding"] == 0
    chain = CTMC()
    chain.add_transition("up", "fast", fail * c)
    chain.add_transition("up", "slow", fail * (1 - c))
    chain.add_transition("fast", "up", fast)
    chain.add_transition("slow", "up", slow)
    pi = chain.steady_state()
    assert srn.probability(lambda m: m["up"] == 1) == pytest.approx(pi["up"], abs=1e-10)
