"""Continuous-time Markov chains (system S9 in DESIGN.md).

State-space models capture what non-state-space models cannot: shared
repair facilities, imperfect coverage, warm/cold spares, operational
dependencies.  The price is state-space explosion — benchmark E06
measures it — and this module is the solution engine those models rest
on: steady-state (GTH / sparse-direct / power), transient (uniformization
/ ODE), cumulative transient, and absorbing-chain analysis (MTTA,
absorption probabilities).

States are arbitrary hashable labels; matrices are built lazily and
cached.

Examples
--------
A two-unit parallel system with a single shared repair facility::

    >>> from repro.markov import CTMC
    >>> chain = CTMC()
    >>> lam, mu = 0.001, 0.1
    >>> _ = chain.add_transition(2, 1, 2 * lam)   # either unit fails
    >>> _ = chain.add_transition(1, 0, lam)       # remaining unit fails
    >>> _ = chain.add_transition(1, 2, mu)        # single repair crew
    >>> _ = chain.add_transition(0, 1, mu)
    >>> pi = chain.steady_state()
    >>> round(pi[2] + pi[1], 8)                   # availability (2 or 1 up)
    0.99980396
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from .._kernels import POLICY, gth_eliminate
from .._validation import check_rate, initial_vector
from ..core.model import DependabilityModel
from ..exceptions import ModelDefinitionError, SolverError, StateSpaceError
from ..obs.trace import get_tracer
from .registry import STEADY_STATE, TRANSIENT
from .solvers import _UNIFORMIZATION_TOL, cumulative_uniformization, solve_transient

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sparse.ctmc import SparseCTMC

__all__ = ["CTMC", "ChainDependabilityModel", "MarkovDependabilityModel"]

State = Hashable


class _LabelledChain:
    """Labelled states plus one accumulating ``(i, j) → value`` store.

    The shared build layer of :class:`CTMC` and
    :class:`~repro.markov.dtmc.DTMC`: one COO slot per distinct
    ``(i, j)`` pair in first-insertion order, so repeated additions
    accumulate in place and the matrix assembles from flat arrays in
    O(nnz).
    """

    def __init__(self, states: Iterable[State] = ()):
        self._states: List[State] = []
        self._index: Dict[State, int] = {}
        self._slot: Dict[Tuple[int, int], int] = {}
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._vals: List[float] = []
        #: the assembled matrix, dropped on every change
        self._cache: Optional[sparse.csr_matrix] = None
        for state in states:
            self.add_state(state)

    def add_state(self, state: State):
        """Register a state (no-op when already present)."""
        if state not in self._index:
            self._index[state] = len(self._states)
            self._states.append(state)
            self._cache = None
        return self

    def _accumulate(self, source: State, target: State, value: float) -> None:
        self.add_state(source)
        self.add_state(target)
        key = (self._index[source], self._index[target])
        pos = self._slot.get(key)
        if pos is None:
            self._slot[key] = len(self._rows)
            self._rows.append(key[0])
            self._cols.append(key[1])
            self._vals.append(value)
        else:
            self._vals[pos] += value
        self._cache = None

    def _transitions(self) -> Iterable[Tuple[int, int, float]]:
        """``(i, j, value)`` per distinct pair, in first-insertion order."""
        return zip(self._rows, self._cols, self._vals)

    @property
    def states(self) -> List[State]:
        """State labels in index order."""
        return list(self._states)

    @property
    def n_states(self) -> int:
        """Number of states."""
        return len(self._states)

    def index_of(self, state: State) -> int:
        """Index of a state label."""
        try:
            return self._index[state]
        except KeyError:
            raise ModelDefinitionError(f"unknown state: {state!r}") from None

    def _initial_vector(self, initial) -> np.ndarray:
        return initial_vector(initial, self.n_states, self.index_of)


class CTMC(_LabelledChain):
    """A finite continuous-time Markov chain with labelled states.

    Transitions are added with :meth:`add_transition`; parallel additions
    between the same pair of states accumulate.  All analysis methods
    accept and return state labels, never raw indices.
    """

    def add_transition(self, source: State, target: State, rate: float) -> "CTMC":
        """Add (or accumulate) a transition ``source → target`` at ``rate``."""
        if source == target:
            raise ModelDefinitionError("self-loops are meaningless in a CTMC")
        check_rate(rate)
        self._accumulate(source, target, float(rate))
        return self

    # -------------------------------------------------------------- access
    def rate(self, source: State, target: State) -> float:
        """Transition rate between two states (0 when absent)."""
        pos = self._slot.get((self.index_of(source), self.index_of(target)))
        return 0.0 if pos is None else self._vals[pos]

    def exit_rate(self, state: State) -> float:
        """Total rate out of ``state``."""
        i = self.index_of(state)
        return sum(rate for src, _, rate in self._transitions() if src == i)

    def generator(self) -> sparse.csr_matrix:
        """The infinitesimal generator ``Q`` as a sparse CSR matrix."""
        if self._cache is None:
            n = self.n_states
            if n == 0:
                raise ModelDefinitionError("chain has no states")
            nnz = len(self._rows)
            rows = np.empty(nnz + n, dtype=np.int64)
            cols = np.empty(nnz + n, dtype=np.int64)
            vals = np.empty(nnz + n, dtype=float)
            rows[:nnz] = self._rows
            cols[:nnz] = self._cols
            vals[:nnz] = self._vals
            diag = np.zeros(n)
            # In-order subtraction matches the historical per-entry
            # `diag[i] -= rate` loop bit for bit.
            np.subtract.at(diag, rows[:nnz], vals[:nnz])
            rows[nnz:] = np.arange(n)
            cols[nnz:] = np.arange(n)
            vals[nnz:] = diag
            self._cache = sparse.csr_matrix(
                (vals, (rows, cols)), shape=(n, n), dtype=float
            )
        return self._cache

    def freeze(self) -> "SparseCTMC":
        """The chain frozen into a :class:`~repro.sparse.SparseCTMC`.

        The frozen chain shares this chain's generator and labels; later
        :meth:`add_transition` calls do not reach it.  Like every
        ``SparseCTMC``, its ``steady_state`` defaults to ``auto`` with
        the reachability iterative row.
        """
        from ..sparse.ctmc import SparseCTMC

        return SparseCTMC(self.generator(), labels=self.states)

    def absorbing_states(self) -> List[State]:
        """States with no outgoing transitions."""
        sources = {i for i, _, _ in self._transitions()}
        return [state for state, i in self._index.items() if i not in sources]

    # ------------------------------------------------------- steady state
    def steady_state(
        self, method: str = "gth", diagnostics: str = "ignore"
    ) -> Dict[State, float]:
        """Stationary distribution of an irreducible chain.

        Parameters
        ----------
        method:
            ``"gth"`` (default, dense, stiffness-proof; refused above the
            policy's GTH size row before anything is densified),
            ``"direct"`` (sparse LU), ``"power"`` (power iteration on the
            uniformized chain), or ``"auto"`` — the diagnosed fallback chain of
            :func:`~repro.markov.fallback.solve_steady_state` (use
            :meth:`steady_state_report` to also see which stage won and
            why).
        diagnostics:
            ``"ignore"`` (default), ``"warn"`` or ``"strict"`` — run the
            :mod:`repro.analyze` lint pass (steady-state query, so
            absorbing states and reducibility are errors under
            ``"strict"``) before solving.
        """
        pi = self._stationary(method, diagnostics)
        return {state: float(pi[i]) for state, i in self._index.items()}

    def _stationary(self, method: str = "gth", diagnostics: str = "ignore") -> np.ndarray:
        """:meth:`steady_state` as a vector in index order."""
        if diagnostics != "ignore":
            from ..analyze import run_diagnostics

            run_diagnostics(
                self, diagnostics, query="steady_state", where="CTMC.steady_state"
            )
        q = self.generator()
        if method not in ("gth", "direct", "power"):
            if method != "auto" and method not in STEADY_STATE:
                raise SolverError(f"unknown steady-state method {method!r}")
            # ``auto`` and the other registry backends (gmres, bicgstab,
            # third-party) run through the guarded fallback front door.
            from .fallback import solve_steady_state

            return solve_steady_state(q, method=method).pi
        # The single registered stage, unguarded; its pre-check refuses
        # GTH above the policy's size row before densifying.
        stage = STEADY_STATE.get(method)
        tracer = get_tracer()
        with tracer.span(
            "solver.steady_state", method=method, route="method", n_states=self.n_states
        ):
            with tracer.span("solver.stage", method=method) as span:
                pi = stage(q)
                span.set(success=True)
            tracer.metrics.counter("solver.stage.success", method=method).inc()
        return pi

    def steady_state_report(self, method: str = "auto", **kwargs):
        """Stationary solve with full fallback diagnostics.

        Runs :func:`~repro.markov.fallback.solve_steady_state` on the
        generator and returns its :class:`~repro.markov.fallback.SolverReport`
        (``report.pi`` follows :attr:`states` order; extra keyword
        arguments — ``order``, ``stages``, ``x0``, ... — are
        forwarded).
        """
        from .fallback import solve_steady_state

        return solve_steady_state(self.generator(), method=method, **kwargs)

    def expected_reward_rate(
        self, rewards: Mapping[State, float], method: str = "gth"
    ) -> float:
        """Steady-state expected reward rate ``Σ_s r(s) π_s``."""
        pi = self.steady_state(method=method)
        return sum(float(rewards.get(state, 0.0)) * prob for state, prob in pi.items())

    # ---------------------------------------------------------- transient
    def transient(
        self,
        times,
        initial,
        method: str = "uniformization",
        tol: float = _UNIFORMIZATION_TOL,
        diagnostics: str = "ignore",
    ) -> "np.ndarray | Dict[State, float]":
        """State probabilities at one or many time points.

        Parameters
        ----------
        times:
            Scalar time (returns a dict state → probability) or an array
            of times (returns an array of shape ``(len(times), n)`` whose
            columns follow :attr:`states` order).
        initial:
            A state label or a mapping state → probability.
        method:
            ``"uniformization"`` (default, error-controlled), ``"ode"``
            (``scipy.integrate.solve_ivp``, the E09 ablation), ``"auto"``
            or any other name registered in
            :data:`~repro.markov.registry.TRANSIENT` — all solved by
            :func:`~repro.markov.solvers.solve_transient`.
        diagnostics:
            ``"ignore"`` (default), ``"warn"`` or ``"strict"`` — run the
            :mod:`repro.analyze` lint pass (transient query: absorbing
            states and reducibility are fine) before solving.
        """
        if diagnostics != "ignore":
            from ..analyze import run_diagnostics

            run_diagnostics(
                self, diagnostics, query="transient", where="CTMC.transient"
            )
        scalar = np.isscalar(times)
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        p0 = self._initial_vector(initial)
        if method != "auto" and method not in TRANSIENT:
            raise SolverError(f"unknown transient method {method!r}")
        probs = solve_transient(self.generator(), p0, ts, method=method, tol=tol)
        if scalar:
            return {state: float(probs[0, i]) for state, i in self._index.items()}
        return probs

    def cumulative_transient(
        self, times, initial, tol: float = _UNIFORMIZATION_TOL
    ) -> np.ndarray:
        """Expected total time spent in each state during ``[0, t]``.

        Returns an array of shape ``(len(times), n)`` (row sums = t).
        """
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        p0 = self._initial_vector(initial)
        return cumulative_uniformization(self.generator(), p0, ts, tol=tol)

    # ----------------------------------------------------------- absorbing
    def _split_transient_absorbing(
        self, absorbing: Optional[Iterable[State]] = None
    ) -> Tuple[List[int], List[int]]:
        if absorbing is None:
            absorbing_set = {self._index[s] for s in self.absorbing_states()}
        else:
            absorbing_set = {self.index_of(s) for s in absorbing}
        transient = [i for i in range(self.n_states) if i not in absorbing_set]
        return transient, sorted(absorbing_set)

    def mean_time_to_absorption(
        self, initial, absorbing: Optional[Iterable[State]] = None
    ) -> float:
        """Expected time until the chain enters an absorbing state.

        Parameters
        ----------
        initial:
            Starting state label or distribution.
        absorbing:
            Optional explicit absorbing set (states are *treated* as
            absorbing: their outgoing transitions are ignored).  Defaults
            to the structurally absorbing states.
        """
        transient, absorbing_idx = self._split_transient_absorbing(absorbing)
        if not absorbing_idx:
            raise StateSpaceError("chain has no absorbing states; MTTA is infinite")
        q = self.generator().toarray()
        sub = q[np.ix_(transient, transient)]
        p0 = self._initial_vector(initial)[transient]
        if p0.sum() <= 0.0:
            return 0.0
        # Solve  tau^T sub = -p0^T  (tau_i = expected total time in i).
        try:
            tau = np.linalg.solve(sub.T, -p0)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "singular transient block: some transient state cannot reach absorption"
            ) from exc
        if np.any(tau < -1e-9):
            raise SolverError("negative expected sojourn time; chain structure is inconsistent")
        return float(tau.sum())

    def absorption_probabilities(
        self, initial, absorbing: Optional[Iterable[State]] = None
    ) -> Dict[State, float]:
        """Probability of ultimately being absorbed in each absorbing state."""
        transient, absorbing_idx = self._split_transient_absorbing(absorbing)
        if not absorbing_idx:
            raise StateSpaceError("chain has no absorbing states")
        q = self.generator().toarray()
        sub = q[np.ix_(transient, transient)]
        cross = q[np.ix_(transient, absorbing_idx)]
        p0_full = self._initial_vector(initial)
        p0 = p0_full[transient]
        # Expected sojourn times, then flow into each absorbing state.
        tau = np.linalg.solve(sub.T, -p0) if transient else np.zeros(0)
        flows = tau @ cross if transient else np.zeros(len(absorbing_idx))
        result: Dict[State, float] = {}
        for pos, idx in enumerate(absorbing_idx):
            direct = p0_full[idx]
            result[self._states[idx]] = float(flows[pos] + direct)
        return result

    def first_passage_mean(self, initial, targets: Iterable[State]) -> float:
        """Mean first-passage time from ``initial`` into the target set."""
        return self.mean_time_to_absorption(initial, absorbing=targets)

    # ------------------------------------------------------------- utility
    def restricted(self, keep: Iterable[State]) -> "CTMC":
        """Sub-chain over ``keep``; transitions leaving the set are dropped."""
        keep_set = set(keep)
        chain = CTMC(states=[s for s in self._states if s in keep_set])
        for i, j, rate in self._transitions():
            src, dst = self._states[i], self._states[j]
            if src in keep_set and dst in keep_set:
                chain.add_transition(src, dst, rate)
        return chain

    def with_absorbing(self, absorbing: Iterable[State]) -> "CTMC":
        """Copy of the chain with the given states made absorbing."""
        absorbing_set = set(absorbing)
        chain = CTMC(states=self._states)
        for i, j, rate in self._transitions():
            src = self._states[i]
            if src in absorbing_set:
                continue
            chain.add_transition(src, self._states[j], rate)
        return chain

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CTMC(n_states={self.n_states}, n_transitions={len(self._rows)})"


def _sparse_mean_passage_time(
    q: sparse.spmatrix, p0: np.ndarray, targets: np.ndarray
) -> float:
    """Mean first-passage time into ``targets`` on a CSR generator.

    Sparse counterpart of :meth:`CTMC.mean_time_to_absorption`: solve
    ``τᵀ Q_TT = -p0ᵀ`` on the non-target (transient) block with SuperLU
    instead of densifying.
    """
    transient = np.flatnonzero(~targets)
    if transient.size == 0:
        return 0.0
    q = sparse.csr_matrix(q, dtype=float)
    sub = q[transient][:, transient]
    p0_t = np.asarray(p0, dtype=float)[transient]
    if p0_t.sum() <= 0.0:
        return 0.0
    try:
        tau = sparse_linalg.spsolve(sparse.csc_matrix(sub.transpose()), -p0_t)
    except RuntimeError as exc:  # pragma: no cover - SuperLU failure path
        raise SolverError(f"sparse first-passage solve failed: {exc}") from exc
    if not np.all(np.isfinite(tau)):
        raise SolverError(
            "singular transient block: some transient state cannot reach the target set"
        )
    if np.any(tau < -1e-9):
        raise SolverError("negative expected sojourn time; chain structure is inconsistent")
    return float(tau.sum())


def _renewal_mttf(q: sparse.spmatrix, p0: np.ndarray, targets: np.ndarray) -> float:
    """Mean first-passage time into ``targets`` by the renewal-reward identity.

    The target set is lumped into one state that restarts the chain from
    ``p0`` at rate ``r`` (the largest exit rate of the other states).
    Each cycle of that chain spends the first-passage time outside the
    targets and a mean ``1 / (r · p0(outside))`` inside, so its
    stationary vector gives ``MTTF = Σ_outside π / (r · π_target)``.
    The vector comes from GTH (:func:`repro._kernels.gth_eliminate`),
    which never subtracts, so highly redundant chains keep every digit
    that a linear solve of the transient block loses to cancellation.
    Raises :class:`~repro.exceptions.SolverError` when some state
    cannot reach the targets.
    """
    transient = np.flatnonzero(~targets)
    if transient.size == 0:
        return 0.0
    start = np.asarray(p0, dtype=float)[transient]
    if start.sum() <= 0.0:
        return 0.0
    q = sparse.csr_matrix(q, dtype=float)
    rows = q[transient]
    n = transient.size + 1
    lumped = np.zeros((n, n))
    lumped[1:, 1:] = rows[:, transient].toarray()
    lumped[1:, 0] = np.asarray(rows[:, np.flatnonzero(targets)].sum(axis=1)).ravel()
    rate = float((-q.diagonal()[transient]).max())
    lumped[0, 1:] = rate * start
    pi = gth_eliminate(lumped)
    return float(pi[1:].sum() / (rate * pi[0]))


class ChainDependabilityModel(DependabilityModel):
    """The dependability measures of a chain with designated up states.

    One implementation of availability, interval availability,
    reliability and MTTF for every chain-backed model.  It works over a
    CSR generator, the up-state indices, an initial vector and the
    chain's own stationary solve; subclasses only turn labels or
    predicates into those inputs.

    * Availability measures come from the chain as given (repairs
      included); interval availability integrates it exactly by
      cumulative uniformization.
    * Reliability measures come from the generator with the down rows
      zeroed, so the first system failure ends the mission.
    * Up-state probabilities are summed in the order ``up`` lists them,
      so results never depend on set or hash order.

    Parameters
    ----------
    generator:
        The ``(n, n)`` CSR generator.
    up:
        Up-state indices, in summation order.
    initial:
        Initial probability vector (length ``n``).
    stationary:
        Zero-argument callable returning the stationary vector (index
        order) by the chain's own steady-state route.
    """

    def __init__(self, generator, up, initial: np.ndarray, stationary):
        self._q = generator
        self._up = np.asarray(up, dtype=np.intp)
        self._p0 = initial
        self._stationary = stationary

    def _up_probability(self, probs: np.ndarray):
        return probs[..., self._up].sum(axis=-1)

    def _transient_up(self, generator, t):
        scalar = np.isscalar(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = self._up_probability(solve_transient(generator, self._p0, ts))
        return float(out[0]) if scalar else out

    def availability(self, t):
        """Point availability ``A(t) = Σ_{s up} π_s(t)``."""
        return self._transient_up(self._q, t)

    def steady_state_availability(self) -> float:
        """Long-run availability ``Σ_{s up} π_s``."""
        return float(self._up_probability(self._stationary()))

    def interval_availability(self, t) -> float:
        """Expected fraction of ``[0, t]`` up, via cumulative uniformization."""
        t = float(t)
        if t <= 0:
            raise SolverError("interval availability requires t > 0")
        cumulative = cumulative_uniformization(self._q, self._p0, [t])[0]
        return float(self._up_probability(cumulative)) / t

    def _down_mask(self) -> np.ndarray:
        down = np.ones(self._q.shape[0], dtype=bool)
        down[self._up] = False
        return down

    def reliability(self, t):
        """Probability of no system failure in ``[0, t]``."""
        # Zero the down rows: down states become absorbing.
        keep = sparse.diags((~self._down_mask()).astype(float))
        return self._transient_up((keep @ self._q).tocsr(), t)

    def mttf(self) -> float:
        """Mean time to the first down state.

        Up to ``POLICY.gth_first_states`` states, by the subtraction-free
        renewal-reward identity (:func:`_renewal_mttf`); above that, or
        when some up state cannot reach the down set, by a sparse solve
        of the up block.
        """
        down = self._down_mask()
        if not down.any():
            raise StateSpaceError("chain has no down states; MTTF is infinite")
        if down.size <= POLICY.gth_first_states:
            try:
                return _renewal_mttf(self._q, self._p0, down)
            except SolverError:
                pass
        return _sparse_mean_passage_time(self._q, self._p0, down)


class MarkovDependabilityModel(ChainDependabilityModel):
    """Dependability measures of a :class:`CTMC` with designated up states.

    Steady-state availability uses the chain's own solve
    (:meth:`CTMC.steady_state`, GTH by default); see
    :class:`ChainDependabilityModel` for the measures.

    Parameters
    ----------
    chain:
        The availability CTMC.
    up_states:
        States in which the system is considered operational; their
        probabilities are summed in the order given.
    initial:
        Initial state label or distribution.
    """

    def __init__(self, chain: CTMC, up_states: Iterable[State], initial):
        self.chain = chain
        self.up_states = list(dict.fromkeys(up_states))
        unknown = [s for s in self.up_states if s not in chain._index]
        if unknown:
            raise ModelDefinitionError(f"up states not in the chain: {unknown}")
        if not self.up_states:
            raise ModelDefinitionError("at least one up state is required")
        self.initial = initial
        super().__init__(
            chain.generator(),
            [chain.index_of(s) for s in self.up_states],
            chain._initial_vector(initial),
            chain._stationary,
        )
