"""SRN reachability: BFS straight into CSR triplet buffers.

Generates the tangible reachability graph of a stochastic Petri net and
its underlying CTMC — the one generation step of the SRN workflow.
Markings that enable immediate transitions (*vanishing* markings) are
eliminated on the fly: each timed firing that lands on a vanishing
marking is redistributed over the tangible markings ultimately reached,
weighting by the immediate transitions' normalized weights.  Vanishing
loops are resolved exactly by solving the linear system within each
vanishing strongly connected component, so nets with cyclic immediate
behaviour (e.g. weighted retries) are handled, provided the loop is not
probability-preserving (a "timeless trap").

Markings are *interned* to dense integer ids (one token-tuple → id dict,
the only per-marking structure kept), transitions stream into
chunk-allocated NumPy triplet buffers, and the result is a
:class:`~repro.sparse.ctmc.SparseCTMC` whose marking labels are
materialized lazily on access — the path scales to 10^6+ markings.

A structural *pre-flight* (P-invariant analysis from
:mod:`repro.analyze.invariants`) sizes the net before building: nets
whose invariant-implied state bound exceeds ``max_markings`` are refused
in milliseconds — before a single marking is expanded — with the
certificate attached to the :class:`~repro.exceptions.StateSpaceError`,
and nets under budget get their triplet buffers pre-sized from the
predicted edge count.  A bounded-memory guard then tracks the estimated
footprint (interning table + triplet buffers) during BFS and raises
:class:`~repro.exceptions.StateSpaceError` before the process swaps, and
the whole exploration runs inside a ``sparse.reachability`` trace span
with periodic marking/edge counters.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..exceptions import StateSpaceError
from ..obs.trace import get_tracer
from ..petrinet.net import Marking, PetriNet
from .ctmc import SparseCTMC, _LazySeq

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..compile.ctmc import RateTerm
    from ..petrinet.net import Transition

__all__ = ["SparseReachabilityResult", "build_sparse_reachability"]

_DEFAULT_MAX_MARKINGS = 5_000_000
_DEFAULT_CHUNK = 65_536
#: Estimated bytes per interned marking: the token tuple (56 + 8·P for
#: small ints already cached by CPython) plus its dict slot and the id.
_DICT_SLOT_BYTES = 104
#: Bytes per streamed transition triplet (int64 row + int64 col + float64).
_TRIPLET_BYTES = 24
#: Tangible probabilities at or below this are dropped from a vanishing
#: resolution (round-off residue of the visit-count solve).
_LOOP_TOLERANCE = 1e-12


def _resolve_vanishing(
    net: PetriNet,
    start: Marking,
    max_markings: int,
) -> Dict[Marking, float]:
    """Distribution over tangible markings reached from a vanishing marking.

    Performs a local expansion of the vanishing subgraph reachable from
    ``start`` and solves ``(I - V) x = b`` where ``V`` is the
    vanishing→vanishing jump matrix — exact even with immediate loops.
    """
    order: List[Marking] = []
    index: Dict[Marking, int] = {}
    tangible_hits: Dict[Marking, Dict[int, float]] = {}
    queue = deque([start])
    index[start] = 0
    order.append(start)
    edges: List[List[Tuple[int, float]]] = []

    while queue:
        marking = queue.popleft()
        i = index[marking]
        while len(edges) <= i:
            edges.append([])
        enabled = net.enabled_transitions(marking)
        weights = [(t, t.weight_in(marking)) for t in enabled]
        total = sum(w for _, w in weights)
        if total <= 0:
            raise StateSpaceError(
                f"vanishing marking {marking!r} has zero total immediate weight"
            )
        for transition, weight in weights:
            if weight <= 0:
                continue
            prob = weight / total
            successor = transition.fire(marking)
            if net.is_vanishing(successor):
                j = index.get(successor)
                if j is None:
                    if len(index) >= max_markings:
                        raise StateSpaceError(
                            f"vanishing expansion exceeded {max_markings} markings"
                        )
                    j = len(order)
                    index[successor] = j
                    order.append(successor)
                    queue.append(successor)
                edges[i].append((j, prob))
            else:
                tangible_hits.setdefault(successor, {}).setdefault(i, 0.0)
                tangible_hits[successor][i] += prob

    n = len(order)
    if n == 1 and not edges[0]:
        # Pure tangible fan-out from a single vanishing marking.
        return {m: probs[0] for m, probs in tangible_hits.items()}

    # Dense over one vanishing component (markings reached from `start`
    # through immediates), never over the tangible chain.
    v = np.zeros((n, n))  # noqa: R007
    for i, outs in enumerate(edges):
        for j, prob in outs:
            v[i, j] += prob
    system = np.eye(n) - v
    try:
        inv_first_row = np.linalg.solve(system.T, _unit(n, 0))
    except np.linalg.LinAlgError as exc:
        raise StateSpaceError(
            "timeless trap: immediate transitions form a probability-preserving loop"
        ) from exc
    # inv_first_row[i] = expected visits to vanishing marking i from start.
    if np.any(~np.isfinite(inv_first_row)):
        raise StateSpaceError("vanishing-loop resolution produced non-finite visit counts")

    result: Dict[Marking, float] = {}
    for tangible_marking, contributions in tangible_hits.items():
        prob = sum(inv_first_row[i] * p for i, p in contributions.items())
        if prob > _LOOP_TOLERANCE:
            result[tangible_marking] = prob
    total = sum(result.values())
    if abs(total - 1.0) > 1e-6:
        raise StateSpaceError(
            f"vanishing resolution lost probability mass (total {total}); "
            "check for timeless traps or dead immediate branches"
        )
    return {m: p / total for m, p in result.items()}


def _unit(n: int, i: int) -> np.ndarray:
    vec = np.zeros(n)
    vec[i] = 1.0
    return vec


class _TripletBuffer:
    """Append-only (row, col, value) store in chunk-allocated NumPy arrays."""

    __slots__ = ("_chunk", "_cap", "_allocated", "_full", "_rows", "_cols", "_vals", "_fill", "count")

    def __init__(self, chunk: int = _DEFAULT_CHUNK, initial: Optional[int] = None):
        self._chunk = int(chunk)
        # The pre-flight can pre-size the first buffer from the predicted
        # edge count, turning many chunk growths into one allocation.
        # Chunking never affects the streamed values, only allocation.
        self._cap = int(initial) if initial else self._chunk
        self._allocated = self._cap
        self._full: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rows = np.empty(self._cap, dtype=np.int64)
        self._cols = np.empty(self._cap, dtype=np.int64)
        self._vals = np.empty(self._cap, dtype=np.float64)
        self._fill = 0
        self.count = 0

    def add(self, row: int, col: int, value: float) -> None:
        if self._fill == self._cap:
            self._full.append((self._rows, self._cols, self._vals))
            self._cap = self._chunk
            self._allocated += self._cap
            self._rows = np.empty(self._cap, dtype=np.int64)
            self._cols = np.empty(self._cap, dtype=np.int64)
            self._vals = np.empty(self._cap, dtype=np.float64)
            self._fill = 0
        i = self._fill
        self._rows[i] = row
        self._cols[i] = col
        self._vals[i] = value
        self._fill = i + 1
        self.count += 1

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = [r for r, _, _ in self._full] + [self._rows[: self._fill]]
        cols = [c for _, c, _ in self._full] + [self._cols[: self._fill]]
        vals = [v for _, _, v in self._full] + [self._vals[: self._fill]]
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    @property
    def nbytes(self) -> int:
        return self._allocated * _TRIPLET_BYTES


class _ChunkVec:
    """Append-only scalar store in chunk-allocated NumPy arrays.

    The single-column sibling of :class:`_TripletBuffer`, used by the
    ``rate_terms=`` recording path for the per-transition term ids and
    vanishing-resolution multipliers.
    """

    __slots__ = ("_chunk", "_dtype", "_full", "_buf", "_fill")

    def __init__(self, dtype, chunk: int = _DEFAULT_CHUNK):
        self._chunk = int(chunk)
        self._dtype = dtype
        self._full: List[np.ndarray] = []
        self._buf = np.empty(self._chunk, dtype=dtype)
        self._fill = 0

    def add(self, value) -> None:
        if self._fill == self._chunk:
            self._full.append(self._buf)
            self._buf = np.empty(self._chunk, dtype=self._dtype)
            self._fill = 0
        self._buf[self._fill] = value
        self._fill += 1

    def array(self) -> np.ndarray:
        return np.concatenate([*self._full, self._buf[: self._fill]])

    @property
    def nbytes(self) -> int:
        return (len(self._full) + 1) * self._chunk * self._buf.itemsize


class SparseReachabilityResult:
    """Outcome of reachability analysis.

    Attributes
    ----------
    chain:
        :class:`~repro.sparse.ctmc.SparseCTMC` over tangible markings.
    initial:
        Initial tangible-marking distribution (a single marking when the
        net's initial marking is tangible, otherwise the distribution the
        immediate transitions resolve it to).
    tangible:
        Tangible markings in discovery order, as a lazily-materializing
        sequence.
    n_vanishing:
        Number of distinct vanishing markings entered by the BFS (the
        initial marking or a timed firing's successor) and eliminated.

    When the build recorded symbolic rates (``rate_terms=``),
    ``compiled`` holds the :class:`~repro.compile.sparse.CompiledSparseCTMC`
    sharing this chain's frozen CSR index arrays; otherwise ``None``.
    """

    def __init__(
        self,
        chain: SparseCTMC,
        initial: Dict[Marking, float],
        tangible: Sequence[Marking],
        n_vanishing: int,
    ):
        self.chain = chain
        self.initial = initial
        self.tangible = tangible
        self.n_vanishing = n_vanishing
        self.compiled = None


def build_sparse_reachability(
    net: PetriNet,
    max_markings: int = _DEFAULT_MAX_MARKINGS,
    memory_limit_mb: float = 4096.0,
    chunk: int = _DEFAULT_CHUNK,
    up: Optional[Callable[[Marking], bool]] = None,
    rate_terms: Optional[Callable[["Transition", Marking], "RateTerm"]] = None,
    rate_values: Optional[Mapping[str, float]] = None,
    preflight: bool = True,
) -> SparseReachabilityResult:
    """Generate the tangible reachability graph of ``net`` into CSR form.

    Parameters
    ----------
    net:
        The Petri net; immediate transitions are eliminated exactly
        (vanishing loops solved linearly, timeless traps detected).
    max_markings:
        Cap on tangible markings (default 5·10^6); exceeding it raises
        :class:`~repro.exceptions.StateSpaceError` (the state-space
        explosion the tutorial warns about, made explicit).
    memory_limit_mb:
        Bounded-memory guard: the estimated footprint of the interning
        table plus triplet buffers may not exceed this; crossing it
        raises :class:`~repro.exceptions.StateSpaceError` with the
        marking count reached, instead of driving the host into swap.
    chunk:
        Triplet-buffer chunk length (tuning knob; any positive value
        yields identical results).
    up:
        Optional predicate on markings evaluated once per discovered
        marking; the resulting boolean mask is attached to the
        :class:`SparseCTMC` as its ``up`` mask, enabling
        ``chain.availability()`` without a second pass over labels.
    rate_terms:
        Optional ``(transition, marking) -> RateTerm`` recorder (the
        symbolic algebra of :mod:`repro.compile.ctmc`).  When given, the
        BFS interns one term per *distinct* rate expression alongside
        the streamed triplets and attaches a
        :class:`~repro.compile.sparse.CompiledSparseCTMC` to the result
        (``result.compiled``), so rate-only parameter sweeps refill the
        CSR ``data`` array without re-running this BFS.  The recorded
        terms must reproduce ``transition.rate_in(marking)`` at the
        build values; the net must be built at strictly-positive rates
        (edges with non-positive build rates are structurally dropped)
        and vanishing-resolution probabilities must be
        parameter-independent (they are frozen as multipliers).
    rate_values:
        The parameter values ``net`` was built at; stored on the
        compiled chain as the defaults merged under every sweep point
        and the point its deterministic warm-start reference is solved
        at.  Only meaningful with ``rate_terms``.
    preflight:
        Structural sizing before building (default on): P-invariant
        analysis (:func:`repro.analyze.invariants.structural_analysis`)
        bounds the reachable markings in milliseconds, *before* any BFS.
        A net whose bound exceeds ``max_markings`` is refused immediately
        — the :class:`~repro.exceptions.StateSpaceError` carries the
        proof on its ``certificate`` attribute — and a net under budget
        gets its triplet buffers pre-sized from the predicted edge
        count.  The bound is an over-approximation, so a refused net
        *may* have been feasible; pass ``preflight=False`` to attempt
        the build anyway and rely on the runtime guards alone.
    """
    if chunk < 1:
        raise StateSpaceError(f"chunk must be positive, got {chunk}")

    predicted_states: Optional[int] = None
    initial_capacity: Optional[int] = None
    if preflight:
        # Imported lazily: repro.analyze pulls in model packages.
        from ..analyze.invariants import structural_analysis

        prediction = structural_analysis(net, conservation_check=False)
        if prediction.complete and prediction.state_bound is not None:
            predicted_states = prediction.state_bound
            if predicted_states > max_markings:
                raise StateSpaceError(
                    f"structural pre-flight refused the build: P-invariant "
                    f"analysis bounds the reachable markings at "
                    f"{predicted_states}, above max_markings={max_markings}; "
                    f"no marking was expanded. Raise max_markings, shrink the "
                    f"net, or pass preflight=False to attempt the build "
                    f"anyway (the bound is an over-approximation)",
                    certificate=prediction,
                )
            n_timed = sum(
                1 for t in net._transitions.values() if not t.is_immediate
            )
            expected_edges = predicted_states * max(1, n_timed)
            # Never pre-allocate more than a quarter of the memory budget.
            by_memory = int(memory_limit_mb * 1024 * 1024) // (4 * _TRIPLET_BYTES)
            initial_capacity = max(int(chunk), min(expected_edges, by_memory))
    record = rate_terms is not None
    term_index: Dict = {}
    terms: List = []
    term_ids = _ChunkVec(np.int64, chunk) if record else None
    multipliers = _ChunkVec(np.float64, chunk) if record else None
    memory_limit = int(memory_limit_mb * 1024 * 1024)
    places = tuple(net.places)
    token_bytes = 56 + 8 * len(places) + _DICT_SLOT_BYTES

    initial_marking = net.initial_marking()
    vanishing_cache: Dict[Marking, Dict[Marking, float]] = {}
    if net.is_vanishing(initial_marking):
        initial_distribution = _resolve_vanishing(net, initial_marking, max_markings)
        vanishing_cache[initial_marking] = initial_distribution
    else:
        initial_distribution = {initial_marking: 1.0}

    index: Dict[Tuple[int, ...], int] = {}
    tokens: List[Tuple[int, ...]] = []
    up_mask = bytearray() if up is not None else None
    triplets = _TripletBuffer(chunk, initial=initial_capacity)
    queue: deque = deque()

    tracer = get_tracer()

    def intern(marking: Marking) -> int:
        key = marking.tokens
        idx = index.get(key)
        if idx is None:
            if len(tokens) >= max_markings:
                raise StateSpaceError(
                    f"reachability exceeded {max_markings} tangible markings "
                    "(state-space explosion); simplify the net or raise the cap"
                )
            idx = len(tokens)
            index[key] = idx
            tokens.append(key)
            if up_mask is not None:
                up_mask.append(1 if up(marking) else 0)
            queue.append(idx)
        return idx

    with tracer.span(
        "sparse.reachability",
        n_places=len(places),
        max_markings=int(max_markings),
        memory_limit_mb=float(memory_limit_mb),
    ) as span:
        if predicted_states is not None:
            span.set(predicted_states=int(predicted_states))
        for marking in initial_distribution:
            intern(marking)

        markings_counter = tracer.metrics.counter("sparse.reachability.markings")
        edges_counter = tracer.metrics.counter("sparse.reachability.edges")
        explored = 0
        last_markings = 0
        last_edges = 0

        while queue:
            i = queue.popleft()
            marking = Marking(places, tokens[i])
            for transition in net.enabled_transitions(marking):
                rate = transition.rate_in(marking)
                if rate <= 0.0:
                    continue
                successor = transition.fire(marking)
                if net.is_vanishing(successor):
                    if successor not in vanishing_cache:
                        vanishing_cache[successor] = _resolve_vanishing(
                            net, successor, max_markings
                        )
                    targets = vanishing_cache[successor]
                else:
                    targets = {successor: 1.0}
                if record:
                    term = rate_terms(transition, marking)
                    tid = term_index.get(term)
                    if tid is None:
                        tid = len(terms)
                        term_index[term] = tid
                        terms.append(term)
                for target, prob in targets.items():
                    if target.tokens == tokens[i]:
                        continue  # rate flows back: no net transition
                    j = intern(target)
                    triplets.add(i, j, rate * prob)
                    if record:
                        term_ids.add(tid)
                        multipliers.add(prob)
            explored += 1
            if explored % chunk == 0:
                markings_counter.inc(len(tokens) - last_markings)
                edges_counter.inc(triplets.count - last_edges)
                last_markings = len(tokens)
                last_edges = triplets.count
                estimated = len(tokens) * token_bytes + triplets.nbytes
                if record:
                    estimated += term_ids.nbytes + multipliers.nbytes
                if estimated > memory_limit:
                    raise StateSpaceError(
                        f"reachability exceeded the {memory_limit_mb:.0f} MiB "
                        f"memory budget at {len(tokens)} markings / "
                        f"{triplets.count} transitions (estimated "
                        f"{estimated / 1e6:.0f} MB); raise memory_limit_mb or "
                        "shrink the model"
                    )

        markings_counter.inc(len(tokens) - last_markings)
        edges_counter.inc(triplets.count - last_edges)

        n = len(tokens)
        rows, cols, vals = triplets.arrays()
        nnz = rows.size
        # Diagonal from the streamed off-diagonal rates, mirroring
        # CTMC.generator(): in-order subtraction per stored entry.
        diag = np.zeros(n)
        np.subtract.at(diag, rows, vals)
        all_rows = np.concatenate([rows, np.arange(n, dtype=np.int64)])
        all_cols = np.concatenate([cols, np.arange(n, dtype=np.int64)])
        all_vals = np.concatenate([vals, diag])
        generator = sparse.csr_matrix(
            (all_vals, (all_rows, all_cols)), shape=(n, n), dtype=float
        )
        n_vanishing = len(vanishing_cache)
        span.set(n_markings=n, n_transitions=int(nnz), n_vanishing=n_vanishing)

    initial_vector = np.zeros(n)
    for marking, prob in initial_distribution.items():
        initial_vector[index[marking.tokens]] = prob

    labels = _LazySeq(lambda i: Marking(places, tokens[i]), n)
    mask = (
        np.frombuffer(bytes(up_mask), dtype=np.uint8).astype(bool)
        if up_mask is not None
        else None
    )
    chain = SparseCTMC(generator, labels=labels, initial=initial_vector, up=mask)
    result = SparseReachabilityResult(chain, initial_distribution, labels, n_vanishing)
    if record:
        # Imported lazily: repro.compile pulls in this module's package.
        from ..compile.sparse import CompiledSparseCTMC

        result.compiled = CompiledSparseCTMC(
            n,
            generator.indices,
            generator.indptr,
            rows,
            cols,
            terms,
            term_ids.array(),
            multipliers.array(),
            up=mask,
            initial=initial_vector,
            build_values=rate_values,
        )
    return result
