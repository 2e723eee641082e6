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

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse

from .._validation import check_rate, initial_vector
from ..core.model import DependabilityModel
from ..exceptions import ModelDefinitionError, SolverError, StateSpaceError
from ..obs.trace import get_tracer
from .solvers import (
    _UNIFORMIZATION_TOL,
    cumulative_uniformization,
    gth_solve,
    solve_transient,
    steady_state_direct,
    steady_state_power,
    transient_ode,
)

__all__ = ["CTMC", "MarkovDependabilityModel"]

State = Hashable


class CTMC:
    """A finite continuous-time Markov chain with labelled states.

    Transitions are added with :meth:`add_transition`; parallel additions
    between the same pair of states accumulate.  All analysis methods
    accept and return state labels, never raw indices.
    """

    def __init__(self, states: Iterable[State] = ()):
        self._states: List[State] = []
        self._index: Dict[State, int] = {}
        self._rates: Dict[Tuple[int, int], float] = {}
        # COO triplet buffers kept in sync with _rates: one slot per
        # distinct (i, j) pair in first-insertion order, so generator()
        # assembles the CSR matrix from flat arrays in O(nnz) instead of
        # re-walking the dict on every build-modify-build cycle.
        self._coo_pos: Dict[Tuple[int, int], int] = {}
        self._coo_rows: List[int] = []
        self._coo_cols: List[int] = []
        self._coo_vals: List[float] = []
        self._generator_cache: Optional[sparse.csr_matrix] = None
        for state in states:
            self.add_state(state)

    # --------------------------------------------------------------- build
    def add_state(self, state: State) -> "CTMC":
        """Register a state (no-op when already present)."""
        if state not in self._index:
            self._index[state] = len(self._states)
            self._states.append(state)
            self._generator_cache = None
        return self

    def add_transition(self, source: State, target: State, rate: float) -> "CTMC":
        """Add (or accumulate) a transition ``source → target`` at ``rate``."""
        if source == target:
            raise ModelDefinitionError("self-loops are meaningless in a CTMC")
        check_rate(rate)
        self.add_state(source)
        self.add_state(target)
        key = (self._index[source], self._index[target])
        value = self._rates.get(key, 0.0) + float(rate)
        self._rates[key] = value
        pos = self._coo_pos.get(key)
        if pos is None:
            self._coo_pos[key] = len(self._coo_rows)
            self._coo_rows.append(key[0])
            self._coo_cols.append(key[1])
            self._coo_vals.append(value)
        else:
            self._coo_vals[pos] = value
        self._generator_cache = None
        return self

    # -------------------------------------------------------------- access
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

    def rate(self, source: State, target: State) -> float:
        """Transition rate between two states (0 when absent)."""
        return self._rates.get((self.index_of(source), self.index_of(target)), 0.0)

    def exit_rate(self, state: State) -> float:
        """Total rate out of ``state``."""
        i = self.index_of(state)
        return sum(rate for (src, _), rate in self._rates.items() if src == i)

    def generator(self) -> sparse.csr_matrix:
        """The infinitesimal generator ``Q`` as a sparse CSR matrix."""
        if self._generator_cache is None:
            n = self.n_states
            if n == 0:
                raise ModelDefinitionError("chain has no states")
            nnz = len(self._coo_rows)
            rows = np.empty(nnz + n, dtype=np.int64)
            cols = np.empty(nnz + n, dtype=np.int64)
            vals = np.empty(nnz + n, dtype=float)
            rows[:nnz] = self._coo_rows
            cols[:nnz] = self._coo_cols
            vals[:nnz] = self._coo_vals
            diag = np.zeros(n)
            # In-order subtraction matches the historical per-entry
            # `diag[i] -= rate` loop bit for bit.
            np.subtract.at(diag, rows[:nnz], vals[:nnz])
            rows[nnz:] = np.arange(n)
            cols[nnz:] = np.arange(n)
            vals[nnz:] = diag
            self._generator_cache = sparse.csr_matrix(
                (vals, (rows, cols)), shape=(n, n), dtype=float
            )
        return self._generator_cache

    def absorbing_states(self) -> List[State]:
        """States with no outgoing transitions."""
        sources = {i for (i, _) in self._rates}
        return [state for state, i in self._index.items() if i not in sources]

    def _initial_vector(self, initial) -> np.ndarray:
        return initial_vector(initial, self.n_states, self.index_of)

    # ------------------------------------------------------- steady state
    def steady_state(
        self, method: str = "gth", diagnostics: str = "ignore"
    ) -> Dict[State, float]:
        """Stationary distribution of an irreducible chain.

        Parameters
        ----------
        method:
            ``"gth"`` (default, dense, stiffness-proof), ``"direct"``
            (sparse LU), ``"power"`` (power iteration on the uniformized
            chain), or ``"auto"`` — the diagnosed fallback chain of
            :func:`~repro.markov.fallback.solve_steady_state` (use
            :meth:`steady_state_report` to also see which stage won and
            why).
        diagnostics:
            ``"ignore"`` (default), ``"warn"`` or ``"strict"`` — run the
            :mod:`repro.analyze` lint pass (steady-state query, so
            absorbing states and reducibility are errors under
            ``"strict"``) before solving.
        """
        if diagnostics != "ignore":
            from ..analyze import run_diagnostics

            run_diagnostics(
                self, diagnostics, query="steady_state", where="CTMC.steady_state"
            )
        q = self.generator()
        if method == "auto":
            from .fallback import solve_steady_state

            pi = solve_steady_state(q, method="auto").pi
            return {state: float(pi[i]) for state, i in self._index.items()}
        kernels = {
            "gth": lambda: gth_solve(q.toarray()),
            "direct": lambda: steady_state_direct(q),
            "power": lambda: steady_state_power(q),
        }
        if method not in kernels:
            from .registry import STEADY_STATE

            if method in STEADY_STATE:
                # Registry backends (gmres, bicgstab, third-party) run
                # through the guarded fallback front door as a
                # single-stage chain.
                from .fallback import solve_steady_state

                pi = solve_steady_state(q, method=method).pi
                return {state: float(pi[i]) for state, i in self._index.items()}
            raise SolverError(f"unknown steady-state method {method!r}")
        tracer = get_tracer()
        with tracer.span(
            "solver.steady_state", method=method, n_states=self.n_states
        ):
            with tracer.span("solver.stage", method=method) as span:
                pi = kernels[method]()
                span.set(success=True)
            tracer.metrics.counter("solver.stage.success", method=method).inc()
        return {state: float(pi[i]) for state, i in self._index.items()}

    def steady_state_report(self, method: str = "auto", **kwargs):
        """Stationary solve with full fallback diagnostics.

        Runs :func:`~repro.markov.fallback.solve_steady_state` on the
        generator and returns its :class:`~repro.markov.fallback.SolverReport`
        (``report.pi`` follows :attr:`states` order; extra keyword
        arguments — ``order``, ``residual_tol``, ``stages``, ... — are
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
            (``scipy.integrate.solve_ivp``, the E09 ablation), or
            ``"auto"`` — delegate the choice to
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
        q = self.generator()
        if method in ("auto", "uniformization"):
            probs = solve_transient(q, p0, ts, method=method, tol=tol)
        elif method == "ode":
            probs = self._transient_ode(q, p0, ts, tol)
        else:
            from .registry import TRANSIENT

            if method not in TRANSIENT:
                raise SolverError(f"unknown transient method {method!r}")
            probs = solve_transient(q, p0, ts, method=method, tol=tol)
        if scalar:
            return {state: float(probs[0, i]) for state, i in self._index.items()}
        return probs

    @staticmethod
    def _transient_ode(
        q: sparse.spmatrix, p0: np.ndarray, ts: np.ndarray, tol: float
    ) -> np.ndarray:
        return transient_ode(q, p0, ts, tol=tol)

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
        for (i, j), rate in self._rates.items():
            src, dst = self._states[i], self._states[j]
            if src in keep_set and dst in keep_set:
                chain.add_transition(src, dst, rate)
        return chain

    def with_absorbing(self, absorbing: Iterable[State]) -> "CTMC":
        """Copy of the chain with the given states made absorbing."""
        absorbing_set = set(absorbing)
        chain = CTMC(states=self._states)
        for (i, j), rate in self._rates.items():
            src = self._states[i]
            if src in absorbing_set:
                continue
            chain.add_transition(src, self._states[j], rate)
        return chain

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CTMC(n_states={self.n_states}, n_transitions={len(self._rates)})"


class MarkovDependabilityModel(DependabilityModel):
    """Dependability measures of a CTMC with designated up states.

    Bridges a :class:`CTMC` into the common
    :class:`~repro.core.model.DependabilityModel` interface:

    * availability measures come from the chain as given (repairs
      included);
    * reliability measures come from a derived chain in which every down
      state is absorbing (first system failure ends the mission).

    Parameters
    ----------
    chain:
        The availability CTMC.
    up_states:
        States in which the system is considered operational.
    initial:
        Initial state label or distribution.
    """

    def __init__(self, chain: CTMC, up_states: Iterable[State], initial):
        self.chain = chain
        self.up_states = set(up_states)
        unknown = [s for s in self.up_states if s not in set(chain.states)]
        if unknown:
            raise ModelDefinitionError(f"up states not in the chain: {unknown}")
        if not self.up_states:
            raise ModelDefinitionError("at least one up state is required")
        self.initial = initial
        self._down_states = [s for s in chain.states if s not in self.up_states]
        self._reliability_chain = chain.with_absorbing(self._down_states)

    def availability(self, t):
        """Point availability ``A(t) = Σ_{s up} π_s(t)``."""
        scalar = np.isscalar(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        probs = self.chain.transient(ts, self.initial)
        idx = [self.chain.index_of(s) for s in self.up_states]
        out = probs[:, idx].sum(axis=1)
        return float(out[0]) if scalar else out

    def steady_state_availability(self) -> float:
        """Long-run availability ``Σ_{s up} π_s``."""
        pi = self.chain.steady_state()
        return sum(pi[s] for s in self.up_states)

    def interval_availability(self, t) -> float:
        """Expected fraction of ``[0, t]`` up, via cumulative uniformization."""
        t = float(t)
        if t <= 0:
            raise SolverError("interval availability requires t > 0")
        cumulative = self.chain.cumulative_transient([t], self.initial)[0]
        idx = [self.chain.index_of(s) for s in self.up_states]
        return float(cumulative[idx].sum()) / t

    def reliability(self, t):
        """Probability of no system failure in ``[0, t]``."""
        scalar = np.isscalar(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        probs = self._reliability_chain.transient(ts, self.initial)
        idx = [self._reliability_chain.index_of(s) for s in self.up_states]
        out = probs[:, idx].sum(axis=1)
        return float(out[0]) if scalar else out

    def mttf(self) -> float:
        """Mean time to first system failure."""
        return self._reliability_chain.mean_time_to_absorption(
            self.initial, absorbing=self._down_states
        )
