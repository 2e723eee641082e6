"""Markov regenerative processes (system S12 in DESIGN.md).

An MRGP generalizes the SMP: between regeneration epochs the process may
keep moving through states while a *general* (non-exponential) timer
stays armed.  The canonical example — and the tutorial's flagship
application — is **software rejuvenation**: a deterministic rejuvenation
timer runs while the software drifts from robust to failure-probable
states; whichever of timer, failure, or repair happens first decides the
next regeneration cycle.

This module implements the practical subclass of MRGPs under the classic
*enabling restriction* (Choi, Kulkarni & Trivedi 1994): at most one
general transition is enabled in any marking/state, with exponential
transitions racing against it.  Solution is by the embedded Markov
renewal sequence:

1. a regeneration cycle starts on entry into a general transition's
   enabled region (the timer arms) or in a purely exponential state;
2. within a cycle, a *subordinated CTMC* (the exponential transitions
   restricted to the enabled region, exits made absorbing) evolves until
   the timer fires or the region is left;
3. expected per-cycle sojourn times and end-of-cycle jump probabilities
   define an embedded DTMC whose stationary vector, weighted by cycle
   sojourns, gives the long-run state probabilities.

Deterministic timers are handled exactly (single subordinated transient
evaluation); general firing-time distributions are integrated by
quantile quadrature.
"""

from __future__ import annotations


from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

from .._validation import check_rate
from ..distributions import Deterministic, LifetimeDistribution
from ..exceptions import ModelDefinitionError, SolverError, StateSpaceError
from .ctmc import CTMC
from .dtmc import DTMC
from .solvers import _uniformized_passes, _uniformized_transpose

__all__ = ["GeneralTransition", "MarkovRegenerativeProcess"]

State = Hashable

#: (subordinated chain, region states, exit states, quadrature points,
#: sorted distinct times, uniformized (Pᵀ, Λ)) of one general transition
_Subordinated = Tuple[CTMC, List[State], List[State], List[float], np.ndarray, tuple]


class GeneralTransition:
    """A generally distributed timed transition of an MRGP.

    Parameters
    ----------
    name:
        Identifier (for diagnostics).
    firing_time:
        Firing-time distribution; the clock arms on entry into
        ``enabled_states`` from outside and is *cancelled* if the process
        leaves the region before firing.
    enabled_states:
        States in which the clock keeps running.
    targets:
        Mapping from each enabled state to the state reached when the
        clock fires there.  Every enabled state must have a target.
    """

    def __init__(
        self,
        name: str,
        firing_time: LifetimeDistribution,
        enabled_states: Iterable[State],
        targets: Mapping[State, State],
    ):
        self.name = str(name)
        self.firing_time = firing_time
        self.enabled_states = frozenset(enabled_states)
        if not self.enabled_states:
            raise ModelDefinitionError(f"general transition {name!r} enables no states")
        missing = [s for s in self.enabled_states if s not in targets]
        if missing:
            raise ModelDefinitionError(
                f"general transition {name!r} lacks firing targets for states: {missing}"
            )
        self.targets = {s: targets[s] for s in self.enabled_states}


class MarkovRegenerativeProcess:
    """An MRGP with exponential transitions plus general timed transitions.

    Examples
    --------
    The classic two-phase rejuvenation model is in
    :mod:`repro.casestudies.rejuvenation`; a minimal deterministic-repair
    system looks like::

        >>> from repro.distributions import Deterministic
        >>> mrgp = MarkovRegenerativeProcess()
        >>> _ = mrgp.add_exponential("up", "down", 0.01)
        >>> _ = mrgp.add_general("repair", Deterministic(5.0), ["down"], {"down": "up"})
        >>> pi = mrgp.steady_state()
        >>> round(pi["up"], 6)                    # 100 / 105
        0.952381
    """

    def __init__(self):
        self._states: List[State] = []
        self._index: Dict[State, int] = {}
        self._exp_rates: Dict[Tuple[State, State], float] = {}
        self._generals: List[GeneralTransition] = []

    # --------------------------------------------------------------- build
    def add_state(self, state: State) -> "MarkovRegenerativeProcess":
        """Register a state (no-op when already present)."""
        if state not in self._index:
            self._index[state] = len(self._states)
            self._states.append(state)
        return self

    def add_exponential(
        self, source: State, target: State, rate: float
    ) -> "MarkovRegenerativeProcess":
        """Add an exponential transition."""
        if source == target:
            raise ModelDefinitionError("self-loops are meaningless")
        check_rate(rate)
        self.add_state(source)
        self.add_state(target)
        key = (source, target)
        self._exp_rates[key] = self._exp_rates.get(key, 0.0) + float(rate)
        return self

    def add_general(
        self,
        name: str,
        firing_time: LifetimeDistribution,
        enabled_states: Iterable[State],
        targets: Mapping[State, State],
    ) -> "MarkovRegenerativeProcess":
        """Add a general timed transition (see :class:`GeneralTransition`)."""
        transition = GeneralTransition(name, firing_time, enabled_states, targets)
        for state in transition.enabled_states:
            self.add_state(state)
        for state in transition.targets.values():
            self.add_state(state)
        for existing in self._generals:
            overlap = existing.enabled_states & transition.enabled_states
            if overlap:
                raise ModelDefinitionError(
                    f"general transitions {existing.name!r} and {name!r} are both "
                    f"enabled in {sorted(map(str, overlap))}; the enabling "
                    "restriction allows at most one"
                )
        self._generals.append(transition)
        return self

    # -------------------------------------------------------------- access
    @property
    def states(self) -> List[State]:
        """State labels in insertion order."""
        return list(self._states)

    def _general_for(self, state: State) -> Optional[GeneralTransition]:
        for transition in self._generals:
            if state in transition.enabled_states:
                return transition
        return None

    def _exit_rate(self, state: State) -> float:
        return sum(rate for (src, _), rate in self._exp_rates.items() if src == state)

    # --------------------------------------------------- cycle computation
    def _exponential_cycle(
        self, state: State
    ) -> Tuple[Dict[State, float], Dict[State, float], float]:
        """(jump probabilities, sojourns, cycle length) for a pure-exponential state."""
        exit_rate = self._exit_rate(state)
        if exit_rate <= 0.0:
            raise StateSpaceError(
                f"state {state!r} is absorbing; the MRGP has no steady state"
            )
        jumps = {
            dst: rate / exit_rate
            for (src, dst), rate in self._exp_rates.items()
            if src == state
        }
        sojourns = {state: 1.0 / exit_rate}
        return jumps, sojourns, 1.0 / exit_rate

    def _subordinated_chain(
        self, transition: GeneralTransition
    ) -> Tuple[CTMC, List[State], List[State]]:
        """Subordinated CTMC over the enabled region, exits absorbing."""
        region = transition.enabled_states
        chain = CTMC()
        exits: List[State] = []
        for state in region:
            chain.add_state(state)
        for (src, dst), rate in self._exp_rates.items():
            if src in region:
                chain.add_transition(src, dst, rate)
                if dst not in region and dst not in exits:
                    exits.append(dst)
        region_states = [s for s in chain.states if s in region]
        return chain, region_states, exits

    def _subordinated(
        self, transition: GeneralTransition, n_quadrature: int
    ) -> _Subordinated:
        """What every entry into ``transition``'s region shares.

        The subordinated chain, the timer's quadrature points and the
        uniformized matrix depend on the region, not on where the cycle
        enters it — one build serves every entry state and both the
        transient and the cumulative pass.
        """
        chain, region_states, exits = self._subordinated_chain(transition)
        if isinstance(transition.firing_time, Deterministic):
            points = [transition.firing_time.value]
        else:
            qs = (np.arange(n_quadrature) + 0.5) / n_quadrature
            points = [float(transition.firing_time.ppf(q)) for q in qs]
        times = np.array(sorted(set(points)), dtype=float)
        uniformized = _uniformized_transpose(chain.generator())
        return chain, region_states, exits, points, times, uniformized

    def _general_cycle(
        self,
        entry: State,
        transition: GeneralTransition,
        subordinated: _Subordinated,
    ) -> Tuple[Dict[State, float], Dict[State, float], float]:
        """(jump probabilities, sojourns, cycle length) for a region entry.

        Conditions on the timer's firing time ``w`` (quantile quadrature;
        exact single point for deterministic timers), using the
        subordinated chain's transient and cumulative-transient solutions
        at ``w``.
        """
        chain, region_states, exits, points, times, uniformized = subordinated
        weights = [1.0 / len(points)] * len(points)

        # The chain's own transient / cumulative_transient front doors,
        # minus rebuilding the uniformized matrix per call.
        probs, cumulative = _uniformized_passes(
            chain.generator(), uniformized, chain._initial_vector(entry), times
        )
        time_index = {t: k for k, t in enumerate(times)}

        jumps: Dict[State, float] = {}
        sojourns: Dict[State, float] = {}
        cycle_length = 0.0
        region_idx = [chain.index_of(s) for s in region_states]
        exit_idx = [chain.index_of(s) for s in exits]

        for w, weight in zip(points, weights):
            k = time_index[w]
            # Timer fires at w while still in the region:
            for s, i in zip(region_states, region_idx):
                p_here = float(probs[k, i])
                if p_here > 0.0:
                    target = transition.targets[s]
                    jumps[target] = jumps.get(target, 0.0) + weight * p_here
            # Region left before w — the cycle ended at the exit jump:
            for s, i in zip(exits, exit_idx):
                p_exit = float(probs[k, i])
                if p_exit > 0.0:
                    jumps[s] = jumps.get(s, 0.0) + weight * p_exit
            # Sojourns within the region up to min(fire, exit):
            for s, i in zip(region_states, region_idx):
                stay = float(cumulative[k, i])
                if stay > 0.0:
                    sojourns[s] = sojourns.get(s, 0.0) + weight * stay
                    cycle_length += weight * stay
        return jumps, sojourns, cycle_length

    # ------------------------------------------------------------ analysis
    def steady_state(self, n_quadrature: int = 64) -> Dict[State, float]:
        """Long-run state probabilities.

        Parameters
        ----------
        n_quadrature:
            Quadrature points for non-deterministic general firing times.

        Notes
        -----
        Regeneration entries are (a) entries into a general transition's
        region (timer arms) and (b) pure exponential states.  An
        exponential move *within* a region does not regenerate — the
        subordinated CTMC handles it — so the embedded chain below is over
        cycle-entry states only.
        """
        if not self._states:
            raise ModelDefinitionError("MRGP has no states")
        cycles: Dict[State, Tuple[Dict[State, float], Dict[State, float], float]] = {}
        # One subordinated build per general transition for this call.
        subordinated: Dict[GeneralTransition, _Subordinated] = {}

        # Discover cycle-entry states reachable from every state (steady
        # state of an irreducible MRGP touches them all; harmless extras
        # get zero embedded probability).
        for state in self._states:
            transition = self._general_for(state)
            if transition is None:
                cycles[state] = self._exponential_cycle(state)
                continue
            if transition not in subordinated:
                subordinated[transition] = self._subordinated(transition, n_quadrature)
            cycles[state] = self._general_cycle(
                state, transition, subordinated[transition]
            )

        # The embedded chain may contain transient entry states (states
        # only visited inside a region, never entered from outside).  GTH
        # needs irreducibility, so restrict to the terminal strongly
        # connected class of the embedded jump graph.
        graph = nx.DiGraph()
        for state, (jumps, _sojourns, _length) in cycles.items():
            graph.add_node(state)
            total = sum(jumps.values())
            if total <= 0.0:
                raise StateSpaceError(f"cycle from {state!r} has no successor")
            for target, prob in jumps.items():
                if prob > 0.0:
                    graph.add_edge(state, target)
        condensation = nx.condensation(graph)
        terminal = [c for c in condensation.nodes if condensation.out_degree(c) == 0]
        if len(terminal) != 1:
            raise StateSpaceError(
                f"embedded chain has {len(terminal)} closed classes; the MRGP is not ergodic"
            )
        recurrent = set(condensation.nodes[terminal[0]]["members"])

        embedded = DTMC()
        for state in cycles:
            if state not in recurrent:
                continue
            jumps = cycles[state][0]
            total = sum(prob for target, prob in jumps.items() if target in recurrent)
            if total <= 0.0:
                raise StateSpaceError(f"cycle from {state!r} escapes its closed class")
            embedded.add_state(state)
            for target, prob in jumps.items():
                if target in recurrent and prob > 0.0:
                    embedded.add_transition(state, target, prob / total)

        nu_recurrent = embedded.steady_state()
        nu = {s: nu_recurrent.get(s, 0.0) for s in cycles}
        denom = sum(nu[s] * cycles[s][2] for s in cycles)
        if denom <= 0.0:
            raise SolverError("total cycle time is zero; model is degenerate")
        pi: Dict[State, float] = {s: 0.0 for s in self._states}
        for entry, (jumps, sojourns, _length) in cycles.items():
            weight = nu[entry]
            if weight <= 0.0:
                continue
            for state, stay in sojourns.items():
                pi[state] += weight * stay
        return {s: value / denom for s, value in pi.items()}

    def expected_reward_rate(
        self, rewards: Mapping[State, float], n_quadrature: int = 64
    ) -> float:
        """Steady-state expected reward rate ``Σ_s r(s) π_s``."""
        pi = self.steady_state(n_quadrature=n_quadrature)
        return sum(float(rewards.get(s, 0.0)) * p for s, p in pi.items())

    def steady_state_availability(
        self, up_states: Iterable[State], n_quadrature: int = 64
    ) -> float:
        """Long-run availability with the given up-state set."""
        up = set(up_states)
        pi = self.steady_state(n_quadrature=n_quadrature)
        return sum(p for s, p in pi.items() if s in up)
