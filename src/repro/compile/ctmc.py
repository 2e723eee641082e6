"""Compiled CTMC kernels: freeze structure once, fill and solve per point.

A parameter sweep over a CTMC model re-solves the *same* chain topology
at every point — only the numeric rates change.  The uncompiled path
rebuilds everything per point: label→index maps, the rate dictionary,
the COO triplets, the CSR generator, and (for reliability measures) a
second absorbing chain.  Compilation hoists all of that out of the loop
with one core shared by both compiled chains:

* the **CSR pattern** (``indices``/``indptr``) is frozen at compile
  time, together with the off-diagonal triplet coordinates, one
  interned symbolic :class:`RateTerm` per distinct rate expression and a
  per-triplet multiplier;
* ``fill`` evaluates each distinct term once per point and scatters
  ``term × multiplier`` into a preallocated thread-local ``data``
  buffer — per-point cost is "evaluate the terms and write ``nnz``
  cells", not "rebuild the model";
* one bounded memo serves repeated points.

:class:`CompiledCTMC` is the labelled front end for small chains: GTH
runs on a dense matrix scattered from the filled ``data`` and
:meth:`~CompiledCTMC.transient` runs on the CSR generator.  The
large-state-space front end is
:class:`~repro.compile.sparse.CompiledSparseCTMC`.

Results are **bit-identical** to building the equivalent
:class:`~repro.markov.CTMC` and solving it: repeated ``(i, j)``
transitions are folded into one :class:`Sum` term that accumulates them
in insertion order, and the diagonal is summed in triplet order — the
floating-point order of ``CTMC.add_transition`` + ``CTMC.generator()``.

Rates are expressed as picklable :class:`RateTerm` objects over a
parameter mapping (:class:`Const`, :class:`Param`, :class:`Scaled`,
:class:`Times`, :class:`Complement`), so a compiled chain can cross a
process boundary once and be filled many times in the worker.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np
from scipy import sparse

from .._validation import check_rate, initial_vector
from ..exceptions import ModelDefinitionError
from ..markov.registry import check_gth_size
from ..markov.solvers import gth_solve, solve_transient
from ..obs.trace import get_tracer

__all__ = [
    "RateTerm",
    "Const",
    "Param",
    "Scaled",
    "Times",
    "Complement",
    "Sum",
    "CompiledCTMC",
]

State = Hashable


class RateTerm:
    """A picklable symbolic rate: ``term(values) -> float``.

    Subclasses reproduce the exact floating-point expression the
    uncompiled model constructor evaluates, so the filled generator is
    bit-identical to the one ``CTMC.add_transition`` would build.
    """

    def __call__(self, values: Mapping[str, float]) -> float:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class Const(RateTerm):
    """A fixed rate, independent of the sweep parameters."""

    value: float

    def __call__(self, values: Mapping[str, float]) -> float:
        return self.value


@dataclass(frozen=True)
class Param(RateTerm):
    """The rate is the parameter ``name`` itself.

    Returns the raw mapping value (no float coercion): validation and
    conversion happen in ``fill``, in the same order
    ``CTMC.add_transition`` applies them.
    """

    name: str

    def __call__(self, values: Mapping[str, float]) -> float:
        return values[self.name]


@dataclass(frozen=True)
class Scaled(RateTerm):
    """``factor * values[name]`` — e.g. ``2.0 * failure_rate``."""

    factor: float
    name: str

    def __call__(self, values: Mapping[str, float]) -> float:
        return self.factor * values[self.name]


@dataclass(frozen=True)
class Times(RateTerm):
    """Product of two terms — e.g. ``failure_rate * coverage``."""

    left: RateTerm
    right: RateTerm

    def __call__(self, values: Mapping[str, float]) -> float:
        return self.left(values) * self.right(values)


@dataclass(frozen=True)
class Complement(RateTerm):
    """``1.0 - term`` — e.g. the uncovered branch ``1 - coverage``."""

    term: RateTerm

    def __call__(self, values: Mapping[str, float]) -> float:
        return 1.0 - self.term(values)


@dataclass(frozen=True)
class Sum(RateTerm):
    """Accumulated rate of one ``(i, j)`` pair added several times.

    Checks each component with ``check_rate`` and adds them as
    ``0.0 + r1 + r2 …`` in order — exactly what repeated
    ``CTMC.add_transition`` calls store for the pair.
    """

    terms: Tuple[RateTerm, ...]

    def __call__(self, values: Mapping[str, float]) -> float:
        total = 0.0
        for term in self.terms:
            rate = term(values)
            check_rate(rate)
            total = total + float(rate)
        return total


class _FrozenChain:
    """Frozen CSR pattern plus interned rate terms: the one compiled fill.

    Parameters
    ----------
    n / indices / indptr:
        The frozen CSR pattern, diagonal included.  The arrays are never
        copied or re-sorted, so refills leave them byte-identical.
    trip_rows / trip_cols:
        Off-diagonal triplet coordinates in build order.
    terms / term_ids / multipliers:
        ``terms`` holds the distinct interned rate terms; triplet ``k``
        is worth ``terms[term_ids[k]](values) * multipliers[k]``.
    """

    _MEMO_LIMIT = 1024
    #: attributes rebuilt in each process instead of pickled
    _PROCESS_LOCAL: Tuple[str, ...] = ("_local", "_memo")

    def __init__(
        self,
        n: int,
        indices: np.ndarray,
        indptr: np.ndarray,
        trip_rows: np.ndarray,
        trip_cols: np.ndarray,
        terms: Sequence[RateTerm],
        term_ids: np.ndarray,
        multipliers: np.ndarray,
    ):
        from ..analyze.compiled import term_parameters

        self.n = int(n)
        if self.n < 1:
            raise ModelDefinitionError("chain has no states")
        self._indices = np.asarray(indices)
        self._indptr = np.asarray(indptr)
        self._trip_rows = np.asarray(trip_rows, dtype=np.int64)
        self._trip_cols = np.asarray(trip_cols, dtype=np.int64)
        self._terms: Tuple[RateTerm, ...] = tuple(terms)
        self._term_ids = np.asarray(term_ids, dtype=np.int64)
        self._mult = np.asarray(multipliers, dtype=np.float64)
        sizes = {a.size for a in (self._trip_rows, self._trip_cols, self._term_ids, self._mult)}
        if len(sizes) != 1:
            raise ModelDefinitionError("triplet arrays disagree in length")

        # Map each triplet (and each diagonal entry) to its slot in the
        # frozen CSR data array.  csr_key is strictly increasing (CSR
        # from COO is deduplicated and column-sorted), so one
        # searchsorted resolves every coordinate.
        nnz = self._indices.size
        row_of = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self._indptr))
        csr_key = row_of * self.n + self._indices.astype(np.int64)
        trip_key = self._trip_rows * self.n + self._trip_cols
        self._trip_slots = np.searchsorted(csr_key, trip_key)
        if self._trip_slots.size and (
            self._trip_slots.max(initial=0) >= nnz
            or not np.array_equal(csr_key[self._trip_slots], trip_key)
        ):
            raise ModelDefinitionError("triplet coordinates do not match the CSR pattern")
        diag_key = np.arange(self.n, dtype=np.int64) * (self.n + 1)
        self._diag_slots = np.searchsorted(csr_key, diag_key)
        if self._diag_slots.size and not np.array_equal(csr_key[self._diag_slots], diag_key):
            raise ModelDefinitionError("CSR pattern is missing diagonal entries")
        # Duplicate (i, j) triplets (two transitions firing to the same
        # target) need accumulation instead of a plain scatter.
        self._has_duplicates = bool(
            trip_key.size > 1 and np.any(np.diff(np.sort(trip_key)) == 0)
        )
        self._nnz = int(nnz)
        names: Dict[str, None] = {}
        for term in self._terms:
            for name in term_parameters(term):
                names.setdefault(name)
        #: parameter names the rate terms read, in first-use order
        self.parameters: Tuple[str, ...] = tuple(names)
        self._local = threading.local()
        self._memo: Dict[Tuple, object] = {}

    # ---------------------------------------------------------- pickling
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        # Thread-local buffers, memos and derived caches never cross
        # processes; workers rebuild them deterministically.
        for name in self._PROCESS_LOCAL:
            state[name] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._local = threading.local()
        self._memo = {}

    # ------------------------------------------------------------ access
    @property
    def n_states(self) -> int:
        """Number of states (frozen order)."""
        return self.n

    @property
    def nnz(self) -> int:
        """Stored entries of the frozen CSR pattern (diagonal included)."""
        return self._nnz

    # -------------------------------------------------------------- fill
    def _workspace(self) -> threading.local:
        ws = self._local
        if getattr(ws, "data", None) is None:
            ws.data = np.zeros(self._nnz)
            ws.tvals = np.empty(len(self._terms))
            ws.trip = np.empty(self._term_ids.size)
        return ws

    def fill(self, values: Mapping[str, float]) -> np.ndarray:
        """Evaluate the rate terms into the thread-local CSR data buffer.

        Each *distinct* term is evaluated and ``check_rate``-validated
        exactly once, in first-use order, so a bad parameter raises what
        the uncompiled build would raise.  The per-triplet values are
        one vectorized gather-and-scale; the diagonal accumulates
        ``-Σ row`` in triplet order, bit-identical to the uncompiled
        generator's in-order subtraction.  Returns the buffer — shared
        per thread, copy it to keep it across fills.
        """
        tracer = get_tracer()
        t0 = perf_counter()
        ws = self._workspace()
        for k, term in enumerate(self._terms):
            rate = term(values)
            check_rate(rate)
            ws.tvals[k] = float(rate)
        np.take(ws.tvals, self._term_ids, out=ws.trip)
        ws.trip *= self._mult
        data = ws.data
        if self._has_duplicates:
            data[...] = 0.0
            np.add.at(data, self._trip_slots, ws.trip)
        else:
            data[self._trip_slots] = ws.trip
        diag = np.bincount(self._trip_rows, weights=ws.trip, minlength=self.n)
        np.negative(diag, out=diag)
        data[self._diag_slots] = diag
        if tracer.enabled:
            tracer.metrics.counter("compile.fill_seconds").inc(perf_counter() - t0)
        return data

    def validate(self, values: Mapping[str, float]) -> None:
        """Run the rate checks of :meth:`fill` without touching buffers.

        Raises exactly what :meth:`fill` would raise, in the same order
        — the cheap stand-in when a caller needs the error contract of a
        model build but the solve itself will come from the memo.  The
        walk lives in :func:`repro.analyze.compiled.validate_terms`, the
        same scan the :func:`repro.analyze.analyze` lint reuses, so the
        two accept/reject bit-identically by construction.
        """
        from ..analyze.compiled import validate_terms

        validate_terms(self._terms, values)

    def _csr(self, data: np.ndarray) -> sparse.csr_matrix:
        return sparse.csr_matrix((data, self._indices, self._indptr), shape=(self.n, self.n))

    def generator(self, values: Mapping[str, float]) -> sparse.csr_matrix:
        """The filled generator as CSR (shares the frozen index arrays).

        The returned matrix's ``indices``/``indptr`` are the compile-time
        arrays themselves — refills can never perturb the pattern — and
        its ``data`` is the thread-local fill buffer.
        """
        return self._csr(self.fill(values))

    # -------------------------------------------------------------- memo
    def _point_key(self, values: Mapping[str, float]) -> Tuple:
        """Memo key of one parameter point: the raw swept values."""
        return tuple(values[name] for name in self.parameters)

    def _memoized(self, key: Tuple, compute: Callable[[], object], kind: str):
        """The bounded memo: return ``compute()``, cached under ``key``.

        Failures are never cached — an exception propagates and leaves
        the memo untouched.
        """
        hit = self._memo.get(key)
        if hit is not None:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.metrics.counter("compile.reuse", kind=kind).inc()
            return hit
        result = compute()
        if len(self._memo) >= self._MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = result
        return result


class CompiledCTMC(_FrozenChain):
    """A CTMC whose structure is frozen and whose rates are symbolic.

    Parameters
    ----------
    states:
        State labels in index order (the order ``CTMC.add_state`` would
        assign while replaying the transitions).
    transitions:
        ``(source_index, target_index, term)`` triples in the order the
        uncompiled constructor adds them.  Duplicate ``(i, j)`` pairs
        are folded into one :class:`Sum` term that accumulates them in
        insertion order, exactly like repeated ``add_transition`` calls.

    Examples
    --------
    >>> cc = CompiledCTMC([2, 1, 0], [
    ...     (0, 1, Scaled(2.0, "lam")), (1, 2, Param("lam")),
    ...     (1, 0, Param("mu")), (2, 1, Param("mu"))])
    >>> pi = cc.steady_state({"lam": 0.001, "mu": 0.1})
    >>> round(float(pi[0] + pi[1]), 8)
    0.99980396
    """

    def __init__(
        self,
        states: Sequence[State],
        transitions: Sequence[Tuple[int, int, RateTerm]],
    ):
        self.states: Tuple[State, ...] = tuple(states)
        n = len(self.states)
        if n == 0:
            raise ModelDefinitionError("chain has no states")
        self._index: Dict[State, int] = {s: i for i, s in enumerate(self.states)}
        if len(self._index) != n:
            raise ModelDefinitionError("duplicate state labels")
        # Group terms by (i, j) in first-insertion order — one triplet
        # per distinct pair, matching the CTMC rate-dict accumulation.
        slots: Dict[Tuple[int, int], List[RateTerm]] = {}
        for i, j, term in transitions:
            i, j = int(i), int(j)
            if i == j:
                raise ModelDefinitionError("self-loops are meaningless in a CTMC")
            if not (0 <= i < n and 0 <= j < n):
                raise ModelDefinitionError(f"transition ({i}, {j}) outside the {n}-state space")
            slots.setdefault((i, j), []).append(term)
        term_index: Dict[RateTerm, int] = {}
        term_ids = []
        for parts in slots.values():
            term = parts[0] if len(parts) == 1 else Sum(tuple(parts))
            term_ids.append(term_index.setdefault(term, len(term_index)))
        pairs = np.array(list(slots), dtype=np.int64).reshape(-1, 2)
        rows, cols = pairs[:, 0], pairs[:, 1]
        diag = np.arange(n, dtype=np.int64)
        # The exact COO → CSR conversion CTMC.generator() runs, so the
        # pattern (index dtype included) matches it byte for byte.
        pattern = sparse.csr_matrix(
            (np.ones(rows.size + n), (np.concatenate([rows, diag]), np.concatenate([cols, diag]))),
            shape=(n, n),
        )
        super().__init__(
            n, pattern.indices, pattern.indptr, rows, cols,
            list(term_index), np.array(term_ids, dtype=np.int64), np.ones(rows.size),
        )
        self._row_of = np.repeat(diag, np.diff(self._indptr))

    @classmethod
    def from_ctmc(cls, chain) -> "CompiledCTMC":
        """Freeze an existing :class:`~repro.markov.CTMC`.

        Every transition becomes a :class:`Const` term, so the compiled
        chain reproduces ``chain.generator()`` exactly; combine with
        hand-written :class:`Param` terms when rates should track a
        sweep instead.
        """
        transitions = [(i, j, Const(v)) for i, j, v in chain._transitions()]
        return cls(chain.states, transitions)

    def index_of(self, state: State) -> int:
        """Index of a state label (frozen at compile time)."""
        try:
            return self._index[state]
        except KeyError:
            raise ModelDefinitionError(f"unknown state: {state!r}") from None

    # ------------------------------------------------------------- solve
    def steady_state(self, values: Mapping[str, float]) -> np.ndarray:
        """Stationary vector at one parameter point (index order).

        Runs GTH elimination on a dense matrix scattered from the filled
        ``data``, without re-validation (the fill enforces the generator
        invariants by construction), and returns the same bits as the
        uncompiled ``CTMC.steady_state``.  Chains above the policy's GTH
        size row raise :class:`~repro.exceptions.SolverError` before
        anything is densified.
        """
        check_gth_size(self.n)
        data = self.fill(values)
        tracer = get_tracer()
        t0 = perf_counter()
        dense = np.zeros((self.n, self.n))  # GTH is a dense kernel by design  # noqa: R007
        dense[self._row_of, self._indices] = data
        pi = gth_solve(dense, validated=True)
        if tracer.enabled:
            tracer.metrics.counter("compile.reuse", kind="ctmc").inc()
            tracer.metrics.counter("compile.solve_seconds").inc(perf_counter() - t0)
        return pi

    def memoized(self, values: Mapping[str, float]) -> bool:
        """Whether :meth:`steady_state_cached` would be a memo hit."""
        return self._point_key(values) in self._memo

    def steady_state_cached(self, values: Mapping[str, float]) -> np.ndarray:
        """Memoized :meth:`steady_state` — treat the result as read-only.

        Sweeps usually vary a handful of parameters; every leaf chain
        whose rates happen to be constant across points re-solves the
        identical generator at every one of them.  The memo keys on the
        raw parameter values, so a hit returns the exact array an
        earlier solve produced (bit-identity is trivial).  Failures are
        never cached — a bad value misses the memo, and the fill inside
        :meth:`steady_state` raises exactly as the uncompiled build
        would.  The returned array is shared with the memo: copy it
        before mutating.
        """
        return self._memoized(
            self._point_key(values), lambda: self.steady_state(values), "ctmc-memo"
        )

    # --------------------------------------------------------- transient
    def transient(
        self,
        values: Mapping[str, float],
        times,
        initial,
        method: str = "auto",
        tol: float = 1e-10,
    ) -> np.ndarray:
        """Transient probabilities ``(len(times), n)`` at one point.

        Fills the CSR generator and delegates to
        :func:`~repro.markov.solvers.solve_transient`; across nearby
        points with identical rates the Poisson truncation points are
        served from the ``(λt, tol)`` memo instead of being re-derived.
        """
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        p0 = initial_vector(initial, self.n, self.index_of)
        return solve_transient(self.generator(values), p0, ts, method=method, tol=tol)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledCTMC(n_states={self.n}, n_transitions={self._trip_rows.size})"
