"""Stochastic reward nets: measures on top of the generated CTMC.

An SRN is a stochastic Petri net plus reward functions on markings.  The
class here runs reachability once (cached), then exposes the full measure
suite — steady-state and transient reward rates, availability via an
up-condition predicate, MTTF via absorbing analysis — and the
:class:`~repro.core.model.DependabilityModel` adapter used by the
hierarchy engine.

Reachability streams the tangible BFS into CSR triplet buffers
(:func:`repro.sparse.build_sparse_reachability`), so the generated chain
is a :class:`~repro.sparse.SparseCTMC`: markings become integer states
with lazily-materialized labels, ``steady_state`` returns the
probability *vector* in state order, and reward measures stream over
the label sequence — no marking→probability dict is ever built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from ..exceptions import ModelDefinitionError, StateSpaceError
from ..markov.ctmc import ChainDependabilityModel, _sparse_mean_passage_time
from .net import Marking, PetriNet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sparse.reachability import SparseReachabilityResult

__all__ = ["StochasticRewardNet", "SRNDependabilityModel"]

RewardFunction = Callable[[Marking], float]
Condition = Callable[[Marking], bool]


class StochasticRewardNet:
    """Measure layer over a :class:`~repro.petrinet.net.PetriNet`.

    Parameters
    ----------
    net:
        The Petri net description.
    max_markings:
        Reachability safety cap (default 5 000 000 tangible markings).
    **options:
        Forwarded to :func:`repro.sparse.build_sparse_reachability`
        (``memory_limit_mb``, ``chunk``, ``up``, ``preflight``).

    Examples
    --------
    >>> from repro.petrinet import PetriNet
    >>> net = PetriNet()
    >>> _ = net.add_place("queue")
    >>> _ = net.add_timed_transition("arrive", rate=1.0)
    >>> _ = net.add_output_arc("arrive", "queue")
    >>> _ = net.add_inhibitor_arc("arrive", "queue", 3)
    >>> _ = net.add_timed_transition("serve", rate=2.0)
    >>> _ = net.add_input_arc("serve", "queue")
    >>> srn = StochasticRewardNet(net)
    >>> srn.n_tangible
    4
    """

    def __init__(
        self,
        net: PetriNet,
        max_markings: Optional[int] = None,
        **options,
    ):
        # Imported lazily: repro.sparse imports this package's net module.
        from ..sparse.reachability import _DEFAULT_MAX_MARKINGS

        self.net = net
        if max_markings is None:
            max_markings = _DEFAULT_MAX_MARKINGS
        self._max_markings = int(max_markings)
        self._options = dict(options)
        self._reach: "Optional[SparseReachabilityResult]" = None

    # --------------------------------------------------------------- graph
    @property
    def reachability(self) -> "SparseReachabilityResult":
        """The (cached) tangible reachability result: ``chain`` /
        ``initial`` / ``tangible`` / ``n_vanishing``."""
        if self._reach is None:
            from ..sparse.reachability import build_sparse_reachability

            self._reach = build_sparse_reachability(
                self.net, self._max_markings, **self._options
            )
        return self._reach

    @property
    def chain(self):
        """The generated :class:`~repro.sparse.SparseCTMC`."""
        return self.reachability.chain

    def predict_state_space(self):
        """Size the net *without* building reachability.

        Runs the structural pass
        (:func:`repro.analyze.invariants.structural_analysis`) on the
        underlying net and returns the
        :class:`~repro.analyze.invariants.StructuralAnalysis` — its
        ``state_bound`` is the P-invariant upper bound on the tangible
        marking count (``None`` when the net has no structural bound),
        the same number the build's pre-flight checks against
        ``max_markings``.  Costs milliseconds and never explores a
        single marking.
        """
        from ..analyze.invariants import structural_analysis

        return structural_analysis(self.net)

    @property
    def n_tangible(self) -> int:
        """Number of tangible markings."""
        return len(self.reachability.tangible)

    @property
    def n_vanishing(self) -> int:
        """Number of vanishing markings eliminated during generation."""
        return self.reachability.n_vanishing

    @property
    def initial_distribution(self) -> Dict[Marking, float]:
        """Initial probability over tangible markings."""
        return dict(self.reachability.initial)

    # ------------------------------------------------------------ measures
    def steady_state(self) -> np.ndarray:
        """Stationary probability vector in state-index order.

        Align with :attr:`chain` ``.states`` for marking labels.
        """
        return self.chain.steady_state()

    def expected_reward_rate(self, reward: RewardFunction) -> float:
        """Steady-state expected reward rate of a marking reward function."""
        pi = self.chain.steady_state()
        rewards = np.fromiter(
            (reward(m) for m in self.chain.states), dtype=float, count=len(pi)
        )
        return float(pi @ rewards)

    def expected_tokens(self, place: str) -> float:
        """Steady-state expected token count in ``place``."""
        return self.expected_reward_rate(lambda m: float(m[place]))

    def probability(self, condition: Condition) -> float:
        """Steady-state probability that the marking satisfies ``condition``."""
        return self.expected_reward_rate(lambda m: 1.0 if condition(m) else 0.0)

    def throughput(self, transition: str) -> float:
        """Steady-state firing rate of a timed transition.

        ``Σ_m π(m) · rate(m) · [transition enabled in m]``.
        """
        tr = self.net.transitions.get(transition)
        if tr is None:
            raise ModelDefinitionError(f"unknown transition: {transition!r}")
        if tr.is_immediate:
            raise ModelDefinitionError(
                f"throughput of immediate transition {transition!r} is not defined "
                "on the tangible chain"
            )
        return self.expected_reward_rate(
            lambda m: tr.rate_in(m) if tr.is_enabled(m) else 0.0
        )

    def transient_reward_rate(self, reward: RewardFunction, times) -> np.ndarray:
        """Expected reward rate at each time in ``times``."""
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        probs = self.chain.transient(ts)
        rewards = np.array([reward(m) for m in self.chain.states])
        return probs @ rewards

    def transient_probability(self, condition: Condition, times) -> np.ndarray:
        """Probability the condition holds at each time in ``times``."""
        return self.transient_reward_rate(lambda m: 1.0 if condition(m) else 0.0, times)

    def mean_time_to(self, condition: Condition) -> float:
        """Mean first-passage time into the set of markings satisfying ``condition``."""
        chain = self.chain
        targets = np.fromiter(
            (condition(m) for m in chain.states), dtype=bool, count=chain.n_states
        )
        if not targets.any():
            raise StateSpaceError("no reachable marking satisfies the target condition")
        return _sparse_mean_passage_time(chain.generator(), chain.initial_vector, targets)


class SRNDependabilityModel(ChainDependabilityModel):
    """Dependability adapter: an SRN plus an up-condition predicate.

    The up states are the interned states the predicate accepts (the
    chain's own ``up`` mask when the SRN was built with one), in state
    order; steady-state availability uses the generated chain's own
    solve (:meth:`~repro.sparse.SparseCTMC.steady_state`).  See
    :class:`~repro.markov.ctmc.ChainDependabilityModel` for the
    measures — no marking dicts are ever built.

    Parameters
    ----------
    srn:
        The stochastic reward net.
    up:
        Predicate on markings: True while the system is operational.
    """

    def __init__(self, srn: StochasticRewardNet, up: Condition):
        self.srn = srn
        self.up = up
        chain = srn.chain
        mask = chain.up_mask
        if mask is None:
            mask = np.fromiter(
                (up(m) for m in chain.states), dtype=bool, count=chain.n_states
            )
        if not mask.any():
            raise ModelDefinitionError("no reachable marking satisfies the up condition")
        super().__init__(
            chain.generator(), np.flatnonzero(mask), chain.initial_vector, chain.steady_state
        )
