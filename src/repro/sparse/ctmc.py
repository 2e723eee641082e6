"""The large-state-space CTMC model object (CSR generator + state index).

:class:`SparseCTMC` is the structure-frozen counterpart of
:class:`repro.markov.CTMC` (what :meth:`~repro.markov.CTMC.freeze`
returns) and the form of chains too large to build through per-state
dicts: the generator lives in one CSR matrix, states are
integer indices, and labels (Petri-net markings, tuples, strings) are
attached lazily and only materialized on demand.  It converges with the
rest of the library through the *same* front doors as every other
model — ``steady_state``/``transient`` delegate to the
:mod:`repro.markov` solver chains (so ``method=``, ``diagnostics=``,
``SolverReport`` and tracing all apply), :func:`repro.compile_model`
accepts it (already structure-frozen, returned as-is),
:func:`repro.analyze.analyze` lints its generator sparsely, and
instances are callable evaluators so :func:`repro.evaluate_batch` and
:mod:`repro.serve` can ship them.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from ..exceptions import ModelDefinitionError, SolverError

__all__ = ["SparseCTMC"]


class _LazySeq(Sequence):
    """Read-only sequence view materializing items through a factory."""

    __slots__ = ("_factory", "_n")

    def __init__(self, factory, n: int):
        self._factory = factory
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._n))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        return self._factory(i)

    def __iter__(self) -> Iterator:
        factory = self._factory
        for i in range(self._n):
            yield factory(i)


class SparseCTMC:
    """A CTMC frozen into a CSR generator with integer states.

    Parameters
    ----------
    generator:
        ``(n, n)`` sparse infinitesimal generator (rows sum to zero).
        Stored as CSR; never densified.
    labels:
        Optional state labels in index order — a list, or any sequence
        (including a lazy one) of hashable labels.  ``None`` leaves the
        states labelled by their integer index.
    initial:
        Optional initial probability vector for transient analysis.
        Defaults to all mass on state 0.
    up:
        Optional boolean array marking "system up" states; enables
        :meth:`availability` and makes the model callable (an
        availability evaluator usable with ``evaluate_batch``/serve).
    """

    #: process-pool hint: ship once per worker, not once per task
    __ship_once__ = True

    def __init__(
        self,
        generator: sparse.spmatrix,
        labels: Optional[Sequence[Hashable]] = None,
        initial: Optional[np.ndarray] = None,
        up: Optional[np.ndarray] = None,
    ):
        q = sparse.csr_matrix(generator, dtype=float)
        if q.shape[0] != q.shape[1]:
            raise ModelDefinitionError(f"generator must be square, got {q.shape}")
        self._q = q
        n = q.shape[0]
        if labels is not None and len(labels) != n:
            raise ModelDefinitionError(
                f"{len(labels)} labels for {n} states"
            )
        self._labels = labels
        self._label_index: Optional[Dict[Hashable, int]] = None
        self._initial = None if initial is None else self._probability_vector(initial)
        if up is None:
            self._up = None
        else:
            mask = np.asarray(up, dtype=bool)
            if mask.shape != (n,):
                raise ModelDefinitionError(
                    f"up mask has shape {mask.shape}, expected ({n},)"
                )
            self._up = mask

    def _probability_vector(self, initial) -> np.ndarray:
        """``initial`` as a checked length-``n`` probability vector."""
        n = self.n_states
        p0 = np.asarray(initial, dtype=float)
        if p0.shape != (n,):
            raise ModelDefinitionError(
                f"initial vector has shape {p0.shape}, expected ({n},)"
            )
        total = p0.sum()
        if not np.isfinite(total) or abs(total - 1.0) > 1e-9 or p0.min() < 0:
            raise ModelDefinitionError("initial must be a probability vector")
        return p0

    # ------------------------------------------------------------ structure
    @property
    def n_states(self) -> int:
        """Number of states."""
        return self._q.shape[0]

    @property
    def nnz(self) -> int:
        """Stored entries in the generator."""
        return int(self._q.nnz)

    @property
    def states(self) -> Sequence[Hashable]:
        """State labels in index order (integer indices when unlabeled)."""
        if self._labels is not None:
            return self._labels
        return range(self.n_states)

    @property
    def up_mask(self) -> Optional[np.ndarray]:
        """Boolean "system up" mask, when attached."""
        return self._up

    @property
    def initial_vector(self) -> np.ndarray:
        """Initial probability vector (defaults to all mass on state 0)."""
        if self._initial is not None:
            return self._initial
        p0 = np.zeros(self.n_states)
        p0[0] = 1.0
        return p0

    def generator(self) -> sparse.csr_matrix:
        """The CSR infinitesimal generator (shared, do not mutate)."""
        return self._q

    def index_of(self, label: Hashable) -> int:
        """Index of a labelled state (builds the reverse index on first use)."""
        if self._labels is None:
            idx = int(label)  # type: ignore[arg-type]
            if not 0 <= idx < self.n_states:
                raise ModelDefinitionError(f"state index {idx} out of range")
            return idx
        if self._label_index is None:
            self._label_index = {lbl: i for i, lbl in enumerate(self._labels)}
        try:
            return self._label_index[label]
        except KeyError:
            raise ModelDefinitionError(f"unknown state label: {label!r}") from None

    # -------------------------------------------------------------- solving
    def steady_state(
        self,
        method: str = "auto",
        diagnostics: str = "ignore",
        **kwargs: Any,
    ) -> np.ndarray:
        """Stationary distribution through the standard solver front door.

        Unlike :meth:`repro.markov.CTMC.steady_state` (which returns a
        label→probability dict for its small dict-built chains), this
        returns the probability *vector* in state-index order — a dict
        of 10^6 markings is exactly the materialization this class
        exists to avoid.  Use :meth:`probability`/:meth:`availability`
        or :attr:`states` for labelled access.
        """
        report = self.steady_state_report(
            method=method, diagnostics=diagnostics, **kwargs
        )
        return report.pi

    def steady_state_report(
        self, method: str = "auto", diagnostics: str = "ignore", **kwargs: Any
    ):
        """Full :class:`SolverReport` of the fallback-chain solve (``.pi`` holds π).

        ``iterative_limit`` defaults to the policy's reachability row,
        ``POLICY.iterative_states_reachability``: lazily-generated chains
        are exactly the ones where sparse-LU fill-in explodes.
        """
        from ..markov.fallback import solve_steady_state
        from ..markov.registry import POLICY

        kwargs.setdefault("iterative_limit", POLICY.iterative_states_reachability)
        return solve_steady_state(
            self._q, method=method, diagnostics=diagnostics, **kwargs
        )

    def transient(
        self,
        times: Union[float, Sequence[float], np.ndarray],
        initial: Optional[np.ndarray] = None,
        method: str = "auto",
        diagnostics: str = "ignore",
        **kwargs: Any,
    ) -> np.ndarray:
        """Transient state probabilities at ``times`` (shape ``(len, n)``).

        ``initial`` defaults to :attr:`initial_vector`; a given vector is
        checked like the constructor's.

        ``method`` accepts every registered transient backend —
        ``"auto"``, ``"uniformization"``, ``"krylov"``, ``"ode"``, … —
        with auto selecting Krylov stepping above the large-state
        threshold.  Scalar ``times`` yields a 1-D vector.
        """
        from ..markov.solvers import solve_transient

        scalar = np.isscalar(times)
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        p0 = self.initial_vector if initial is None else self._probability_vector(initial)
        out = solve_transient(
            self._q, p0, ts, method=method, diagnostics=diagnostics, **kwargs
        )
        return out[0] if scalar else out

    # -------------------------------------------------------------- rewards
    def probability(self, labels, pi: Optional[np.ndarray] = None) -> float:
        """Steady-state probability of a label or iterable of labels."""
        if pi is None:
            pi = self.steady_state()
        if isinstance(labels, (list, tuple, set, frozenset)):
            return float(sum(pi[self.index_of(lbl)] for lbl in labels))
        return float(pi[self.index_of(labels)])

    def expected_reward(
        self, rewards: np.ndarray, pi: Optional[np.ndarray] = None
    ) -> float:
        """Expected steady-state reward rate for a per-state reward vector."""
        r = np.asarray(rewards, dtype=float)
        if r.shape != (self.n_states,):
            raise ModelDefinitionError(
                f"reward vector has shape {r.shape}, expected ({self.n_states},)"
            )
        if pi is None:
            pi = self.steady_state()
        return float(pi @ r)

    def availability(self, pi: Optional[np.ndarray] = None) -> float:
        """Steady-state availability: total probability of the up states."""
        if self._up is None:
            raise ModelDefinitionError(
                "SparseCTMC has no up mask; pass up= at construction "
                "or use expected_reward with an explicit reward vector"
            )
        if pi is None:
            pi = self.steady_state()
        return float(pi[self._up].sum())

    def __call__(self, assignment: Optional[Mapping[str, float]] = None) -> float:
        """Evaluate steady-state availability (engine/serve evaluator protocol).

        The generator is structure-and-value frozen, so only the empty
        assignment is meaningful; rebuild the model per parameter point
        (e.g. via :func:`repro.casestudies.nfvchain.build_nfv_chain`)
        for parametric sweeps.
        """
        if assignment:
            raise SolverError(
                "SparseCTMC is frozen at fixed rates and accepts only an empty "
                f"assignment, got {sorted(assignment)}; rebuild the model for "
                "new parameter values"
            )
        return self.availability()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseCTMC(n_states={self.n_states}, nnz={self.nnz}, "
            f"labelled={self._labels is not None}, up={self._up is not None})"
        )
