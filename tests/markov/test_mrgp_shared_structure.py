"""MRGP steady state builds each subordinated chain once per solve.

The hex values below were produced by the solver that rebuilt the
subordinated CTMC and its uniformized matrix for every region entry and
every transient / cumulative pass; sharing them must not move a bit.
"""

import numpy as np

from repro.casestudies.rejuvenation import (
    build_rejuvenation_mrgp,
    evaluate_availability,
    interval_sweep,
    optimal_interval,
)
from repro.distributions import Deterministic, Weibull
from repro.markov import solvers
from repro.markov.mrgp import MarkovRegenerativeProcess

#: (interval, unplanned, planned, cost) of the E12 sweep
SWEEP_HEX = [
    (12.0, "0x1.fc923a7f49ddfp-12", "0x1.bfcb66200821cp-7", "0x1.a5ce990322f06p-9"),
    (24.0, "0x1.e4b51d661c7e7p-11", "0x1.c042c01f919d3p-8", "0x1.2c7b2dcc8e2b5p-9"),
    (48.0, "0x1.b6b90b62445fbp-10", "0x1.b8fd826308e4fp-9", "0x1.338f395e8a5dap-9"),
    (96.0, "0x1.6d98e3f69e9e7p-9", "0x1.9ee89954c1fa5p-10", "0x1.97168ce57ed11p-9"),
    (192.0, "0x1.0df8cc42ea774p-8", "0x1.5b4b574d0361bp-11", "0x1.16a77b3e70f35p-8"),
    (240.0, "0x1.28b3f93e276a5p-8", "0x1.f441bf7019c5fp-12", "0x1.2ef4cba2c1566p-8"),
    (384.0, "0x1.5786944147184p-8", "0x1.b7a1abc8c994cp-13", "0x1.5a45fd5421f46p-8"),
    (768.0, "0x1.7bf944cb3e61ep-8", "0x1.266117054acb1p-15", "0x1.7c6f053ada196p-8"),
    (1536.0, "0x1.837b1989ea9b8p-8", "0x1.6f4524dae7535p-20", "0x1.837fb0cd93be6p-8"),
]


def test_rejuvenation_sweep_hex_unchanged():
    rows = interval_sweep([row[0] for row in SWEEP_HEX])
    assert [(t, u.hex(), p.hex(), c.hex()) for t, u, p, c in rows] == SWEEP_HEX


def test_e12_optimum_hex_unchanged():
    best_tau, best_cost = optimal_interval(np.linspace(12.0, 1536.0, 100))
    assert best_tau == 27.393939393939394
    assert best_cost.hex() == "0x1.253c57a8ffa1ap-9"


def test_served_availability_hex_unchanged():
    value = evaluate_availability({"interval": 100.0, "aging_rate": 0.01})
    assert value.hex() == "0x1.fc373f552a190p-1"


def test_quadrature_timer_hex_unchanged():
    mrgp = MarkovRegenerativeProcess()
    mrgp.add_exponential("robust", "degraded", 1 / 240)
    mrgp.add_exponential("degraded", "failed", 1 / 96)
    mrgp.add_exponential("failed", "robust", 0.5)
    mrgp.add_exponential("rejuvenating", "robust", 6.0)
    mrgp.add_general(
        "timer",
        Weibull(shape=2.0, scale=200.0),
        ["robust", "degraded"],
        {"robust": "rejuvenating", "degraded": "rejuvenating"},
    )
    pi = mrgp.steady_state(n_quadrature=16)
    assert {state: p.hex() for state, p in pi.items()} == {
        "robust": "0x1.98f13b6eecd49p-1",
        "degraded": "0x1.923917e6892f5p-3",
        "failed": "0x1.0c260feeafd32p-8",
        "rejuvenating": "0x1.a0c9de4e00589p-11",
    }


def two_timer_mrgp() -> MarkovRegenerativeProcess:
    mrgp = MarkovRegenerativeProcess()
    mrgp.add_exponential("a", "b", 0.2)
    mrgp.add_exponential("b", "c", 0.1)
    mrgp.add_exponential("c", "d", 1.0)
    mrgp.add_exponential("d", "a", 0.5)
    mrgp.add_general("first", Deterministic(3.0), ["a", "b"], {"a": "c", "b": "c"})
    mrgp.add_general("second", Weibull(shape=1.5, scale=2.0), ["c", "d"], {"c": "a", "d": "a"})
    return mrgp


def count_builds(monkeypatch) -> list:
    calls = []
    original = MarkovRegenerativeProcess._subordinated_chain

    def counting(self, transition):
        calls.append(transition.name)
        return original(self, transition)

    monkeypatch.setattr(MarkovRegenerativeProcess, "_subordinated_chain", counting)
    return calls


def test_one_subordinated_build_per_general_transition(monkeypatch):
    calls = count_builds(monkeypatch)
    uniformized = []
    original = solvers.uniformized_matrix

    def counting(generator, *args, **kwargs):
        uniformized.append(generator.shape)
        return original(generator, *args, **kwargs)

    monkeypatch.setattr(solvers, "uniformized_matrix", counting)
    mrgp = build_rejuvenation_mrgp(240.0)
    mrgp.steady_state()
    # two entry states share the timer's region: one chain and one
    # uniformized matrix serve both entries and both passes
    assert calls == ["rejuvenation_timer"]
    assert uniformized == [(3, 3)]


def test_one_build_per_transition_and_call(monkeypatch):
    calls = count_builds(monkeypatch)
    mrgp = two_timer_mrgp()
    first = mrgp.steady_state(n_quadrature=8)
    assert sorted(calls) == ["first", "second"]
    # nothing is cached across calls
    second = mrgp.steady_state(n_quadrature=8)
    assert sorted(calls) == ["first", "first", "second", "second"]
    assert {state: p.hex() for state, p in second.items()} == {
        "a": "0x1.0beba7a886224p-1",
        "b": "0x1.3f1d6707fbf0ap-3",
        "c": "0x1.594891cbcc775p-3",
        "d": "0x1.37eb688a1f0efp-3",
    }
    assert first == second
