"""Dependability-protocol adapters for SMP and MRGP models.

Completes the "everything is a Model" story: semi-Markov and Markov
regenerative models plug into the same hierarchy/uncertainty machinery
as CTMCs and fault trees.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.model import DependabilityModel
from ..exceptions import ModelDefinitionError
from .mrgp import MarkovRegenerativeProcess
from .smp import SemiMarkovProcess

__all__ = ["SemiMarkovDependabilityModel", "MRGPAvailabilityModel"]


class SemiMarkovDependabilityModel(DependabilityModel):
    """Dependability measures of an SMP with designated up states.

    Reliability measures are computed on a derived SMP in which every
    down state is absorbing (the mission ends at the first system
    failure); availability measures use the process as given.

    Parameters
    ----------
    smp:
        The semi-Markov process.
    up_states:
        Operational states; their probabilities are summed in the order
        given (duplicates dropped), so results do not depend on the
        hash order of the labels.
    initial:
        Starting state.
    """

    def __init__(self, smp: SemiMarkovProcess, up_states: Iterable, initial):
        self.smp = smp
        self.up_states = list(dict.fromkeys(up_states))
        known = set(smp.states)
        unknown = [s for s in self.up_states if s not in known]
        if unknown:
            raise ModelDefinitionError(f"up states not in the SMP: {unknown}")
        if not self.up_states:
            raise ModelDefinitionError("at least one up state is required")
        self.initial = initial
        self._reliability_smp = self._absorb_down()

    def _absorb_down(self) -> SemiMarkovProcess:
        absorbed = SemiMarkovProcess()
        up = set(self.up_states)
        for state in self.smp.states:
            absorbed.add_state(state)
        for state in self.smp.states:
            if state not in up:
                continue  # down states become absorbing
            for target, prob, holding in self.smp._transitions[state]:
                absorbed.add_transition(state, target, prob, holding)
        return absorbed

    def steady_state_availability(self) -> float:
        """Long-run fraction of time in up states."""
        pi = self.smp.steady_state()
        return sum(pi[s] for s in self.up_states)

    def availability(self, t):
        """Point availability by the Markov renewal transient solution."""
        scalar = np.isscalar(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        probs = self.smp.transient(ts, self.initial)
        idx = [self.smp.states.index(s) for s in self.up_states]
        out = probs[:, idx].sum(axis=1)
        return float(out[0]) if scalar else out

    def reliability(self, t):
        """Survival of the first passage into a down state."""
        scalar = np.isscalar(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        probs = self._reliability_smp.transient(ts, self.initial)
        idx = [self._reliability_smp.states.index(s) for s in self.up_states]
        out = probs[:, idx].sum(axis=1)
        return float(out[0]) if scalar else out

    def mttf(self) -> float:
        """Mean first-passage time into the down set."""
        return self._reliability_smp.mean_time_to_absorption(self.initial)


class MRGPAvailabilityModel(DependabilityModel):
    """Steady-state availability adapter for an MRGP.

    MRGP transient analysis is out of scope (the tutorial's practical use
    of MRGPs is steady-state optimization, e.g. rejuvenation intervals);
    the adapter therefore implements only the steady-state measures of
    the protocol.
    """

    def __init__(self, mrgp: MarkovRegenerativeProcess, up_states: Iterable,
                 n_quadrature: int = 64):
        self.mrgp = mrgp
        self.up_states = set(up_states)
        unknown = [s for s in self.up_states if s not in set(mrgp.states)]
        if unknown:
            raise ModelDefinitionError(f"up states not in the MRGP: {unknown}")
        if not self.up_states:
            raise ModelDefinitionError("at least one up state is required")
        self.n_quadrature = int(n_quadrature)

    def steady_state_availability(self) -> float:
        """Long-run fraction of time in up states."""
        return self.mrgp.steady_state_availability(
            self.up_states, n_quadrature=self.n_quadrature
        )
