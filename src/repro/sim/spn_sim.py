"""Token-game simulation of stochastic Petri nets.

Plays the net directly — exponential races among enabled timed
transitions, weight-proportional choice among enabled immediates — with
no reachability graph, so it also works as a sanity check that the
analytic generation in :mod:`repro.sparse.reachability` produced the
right chain.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..exceptions import StateSpaceError
from ..petrinet.net import Marking, PetriNet
from .estimators import Estimate, estimate_mean

__all__ = ["simulate_reward_rate", "simulate_transient_reward"]

RewardFunction = Callable[[Marking], float]

_MAX_IMMEDIATE_CHAIN = 10_000


def _fire_immediates(net: PetriNet, marking: Marking, rng: np.random.Generator) -> Marking:
    for _ in range(_MAX_IMMEDIATE_CHAIN):
        if not net.is_vanishing(marking):
            return marking
        enabled = net.enabled_transitions(marking)
        weights = np.array([t.weight_in(marking) for t in enabled])
        total = weights.sum()
        if total <= 0:
            raise StateSpaceError(f"zero total immediate weight in {marking!r}")
        choice = rng.choice(len(enabled), p=weights / total)
        marking = enabled[choice].fire(marking)
    raise StateSpaceError("immediate-transition chain exceeded 10000 firings (timeless trap?)")


def _advance(
    net: PetriNet, marking: Marking, rng: np.random.Generator
) -> "tuple[Optional[Marking], float]":
    """One tangible step: (next tangible marking or None if dead, holding time)."""
    enabled = net.enabled_transitions(marking)
    timed = [(t, t.rate_in(marking)) for t in enabled if not t.is_immediate]
    timed = [(t, r) for t, r in timed if r > 0]
    if not timed:
        return None, float("inf")
    total = sum(r for _, r in timed)
    hold = rng.exponential(1.0 / total)
    u = rng.uniform() * total
    acc = 0.0
    chosen = timed[-1][0]
    for transition, rate in timed:
        acc += rate
        if u <= acc:
            chosen = transition
            break
    successor = _fire_immediates(net, chosen.fire(marking), rng)
    return successor, hold


def simulate_reward_rate(
    net: PetriNet,
    reward: RewardFunction,
    horizon: float,
    n_replications: int = 32,
    warmup_fraction: float = 0.1,
    rng: Optional[np.random.Generator] = None,
) -> Estimate:
    """Estimate the steady-state expected reward rate by time averaging."""
    rng = rng if rng is not None else np.random.default_rng()
    warmup = horizon * float(warmup_fraction)
    samples = np.empty(n_replications)
    for rep in range(n_replications):
        marking = _fire_immediates(net, net.initial_marking(), rng)
        clock = 0.0
        accumulated = 0.0
        while clock < horizon:
            nxt, hold = _advance(net, marking, rng)
            end = min(clock + hold, horizon)
            if end > warmup:
                accumulated += reward(marking) * (end - max(clock, warmup))
            clock = end
            if nxt is None:
                if clock < horizon and horizon > warmup:
                    accumulated += reward(marking) * (horizon - max(clock, warmup))
                break
            marking = nxt
        samples[rep] = accumulated / (horizon - warmup)
    return estimate_mean(samples)


def simulate_transient_reward(
    net: PetriNet,
    reward: RewardFunction,
    t: float,
    n_samples: int = 10_000,
    rng: Optional[np.random.Generator] = None,
) -> Estimate:
    """Estimate the expected reward rate at time ``t`` by replication."""
    rng = rng if rng is not None else np.random.default_rng()
    values = np.empty(n_samples)
    for k in range(n_samples):
        marking = _fire_immediates(net, net.initial_marking(), rng)
        clock = 0.0
        while True:
            nxt, hold = _advance(net, marking, rng)
            if clock + hold > t or nxt is None:
                break
            clock += hold
            marking = nxt
        values[k] = reward(marking)
    return estimate_mean(values)
