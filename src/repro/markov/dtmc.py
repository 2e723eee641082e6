"""Discrete-time Markov chains (system S8 in DESIGN.md).

DTMCs appear in dependability practice as embedded chains of SMPs and
MRGPs, and directly in models that evolve per demand/cycle rather than in
continuous time (e.g. per-request failure models).  The steady-state
solver reuses GTH elimination on ``P - I``, inheriting its stiffness
robustness.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from .._validation import check_probability
from ..exceptions import ModelDefinitionError, SolverError, StateSpaceError
from .ctmc import _LabelledChain
from .solvers import gth_solve

__all__ = ["DTMC"]

State = Hashable


class DTMC(_LabelledChain):
    """A finite discrete-time Markov chain with labelled states.

    Examples
    --------
    >>> chain = DTMC()
    >>> _ = chain.add_transition("sunny", "sunny", 0.8)
    >>> _ = chain.add_transition("sunny", "rainy", 0.2)
    >>> _ = chain.add_transition("rainy", "sunny", 0.5)
    >>> _ = chain.add_transition("rainy", "rainy", 0.5)
    >>> pi = chain.steady_state()
    >>> round(pi["sunny"], 6)
    0.714286
    """

    def add_transition(self, source: State, target: State, probability: float) -> "DTMC":
        """Add (or accumulate) a one-step transition probability."""
        check_probability(probability, "transition probability")
        self._accumulate(source, target, float(probability))
        return self

    def transition_matrix(self, validate: bool = True) -> np.ndarray:
        """Dense one-step transition matrix ``P``.

        States with no outgoing probability are treated as absorbing
        (``P[i, i] = 1``).  With ``validate`` (default) every row must sum
        to one within tolerance.
        """
        n = self.n_states
        if n == 0:
            raise ModelDefinitionError("chain has no states")
        p = np.zeros((n, n))
        p[self._rows, self._cols] = self._vals
        row_sums = p.sum(axis=1)
        for i in range(n):
            if row_sums[i] == 0.0:
                p[i, i] = 1.0
                row_sums[i] = 1.0
        if validate and not np.allclose(row_sums, 1.0, atol=1e-9):
            bad = [self._states[i] for i in np.where(~np.isclose(row_sums, 1.0, atol=1e-9))[0]]
            raise ModelDefinitionError(f"rows do not sum to 1 for states: {bad}")
        return p

    def absorbing_states(self) -> List[State]:
        """States whose only move is the implicit (or explicit) self-loop."""
        p = self.transition_matrix()
        return [self._states[i] for i in range(self.n_states) if p[i, i] >= 1.0 - 1e-12]

    # ------------------------------------------------------------ analysis
    def steady_state(self) -> Dict[State, float]:
        """Stationary distribution of an irreducible, aperiodic chain."""
        p = self.transition_matrix()
        pi = gth_solve(p - np.eye(self.n_states))
        return {state: float(pi[i]) for state, i in self._index.items()}

    def transient(self, steps: int, initial) -> Dict[State, float]:
        """Distribution after ``steps`` one-step transitions."""
        if steps < 0:
            raise ModelDefinitionError(f"steps must be >= 0, got {steps}")
        vec = self._initial_vector(initial)
        p = self.transition_matrix()
        for _ in range(steps):
            vec = vec @ p
        return {state: float(vec[i]) for state, i in self._index.items()}

    def _transient_block(
        self, absorbing: Optional[Iterable[State]]
    ) -> Tuple[List[int], List[int], np.ndarray]:
        if absorbing is None:
            absorbing_idx = {self._index[s] for s in self.absorbing_states()}
        else:
            absorbing_idx = {self.index_of(s) for s in absorbing}
        transient = [i for i in range(self.n_states) if i not in absorbing_idx]
        if not absorbing_idx:
            raise StateSpaceError("chain has no absorbing states")
        p = self.transition_matrix(validate=absorbing is None)
        if absorbing is not None:
            for i in absorbing_idx:
                p[i, :] = 0.0
                p[i, i] = 1.0
        return transient, sorted(absorbing_idx), p

    def fundamental_matrix(self, absorbing: Optional[Iterable[State]] = None) -> np.ndarray:
        """``N = (I - Q)^{-1}`` over the transient block.

        ``N[i, j]`` is the expected number of visits to transient state j
        starting from transient state i before absorption.
        """
        transient, _, p = self._transient_block(absorbing)
        q = p[np.ix_(transient, transient)]
        try:
            return np.linalg.inv(np.eye(len(transient)) - q)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "singular (I - Q): some transient state cannot reach absorption"
            ) from exc

    def expected_steps_to_absorption(
        self, initial, absorbing: Optional[Iterable[State]] = None
    ) -> float:
        """Expected number of steps until absorption."""
        transient, _, _ = self._transient_block(absorbing)
        n = self.fundamental_matrix(absorbing)
        p0 = self._initial_vector(initial)[transient]
        return float(p0 @ n.sum(axis=1))

    def absorption_probabilities(
        self, initial, absorbing: Optional[Iterable[State]] = None
    ) -> Dict[State, float]:
        """Probability of ending in each absorbing state (``B = N R``)."""
        transient, absorbing_idx, p = self._transient_block(absorbing)
        n = self.fundamental_matrix(absorbing)
        r = p[np.ix_(transient, absorbing_idx)]
        p0_full = self._initial_vector(initial)
        b = (p0_full[transient] @ n @ r) if transient else np.zeros(len(absorbing_idx))
        return {
            self._states[idx]: float(b[pos] + p0_full[idx])
            for pos, idx in enumerate(absorbing_idx)
        }

    def expected_visits(self, initial, absorbing: Optional[Iterable[State]] = None) -> Dict[State, float]:
        """Expected visits to each transient state before absorption."""
        transient, _, _ = self._transient_block(absorbing)
        n = self.fundamental_matrix(absorbing)
        p0 = self._initial_vector(initial)[transient]
        visits = p0 @ n
        return {self._states[idx]: float(visits[pos]) for pos, idx in enumerate(transient)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DTMC(n_states={self.n_states}, n_transitions={len(self._rows)})"
