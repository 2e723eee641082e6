"""Compiled structure functions: one build, vectorized evaluation.

RBD and fault-tree quantification is a bottom-up pass over a structure
(the series/parallel/k-of-n tree, or the shared ROBDD for models with
repeated components).  In a sweep, the structure never changes — only
the component probabilities do — yet the uncompiled path re-walks the
Python object graph point by point, re-dispatching on node types and
re-hashing memo dictionaries every time.

:class:`CompiledStructureFunction` lowers the structure once into flat
arrays/tuples and evaluates **all sweep points at once**: given an
``(n_points, n_components)`` probability matrix, a single vectorized
bottom-up pass computes the ``(n_points,)`` result vector.  Per-element
arithmetic is exactly the uncompiled expression (IEEE-754 elementwise
ops on float64 match the scalar Python-float ops bit for bit), so the
compiled answers are bit-identical to calling
``ReliabilityBlockDiagram.system_up_probability`` /
``FaultTree.top_event_probability`` in a loop.

Two lowering modes, mirroring the RBD dispatch rule:

* **tree** — no repeated components: the block tree becomes a nested
  spec of ``("leaf", col)``, ``("series", children)``,
  ``("parallel", children)`` and ``("kofn", k, children)`` tuples,
  evaluated with the same sequential product/complement/counting-DP
  recurrences as ``RBDBlock.up_probability``;
* **bdd** — repeated components (or any fault tree): the reachable
  ROBDD nodes are flattened into ``(column, low, high)`` arrays in
  decreasing-level order (children strictly below parents in an ordered
  BDD), and the Shannon expansion
  ``value = (1 - p) * low + p * high`` runs once per node over the whole
  point matrix.  A handful of points instead walk the nodes one by one
  in plain Python floats — the scalar expression ``BDD.prob`` evaluates,
  without per-node numpy overhead.

The compiled object holds only plain tuples and numpy arrays — it
pickles cheaply and crosses process boundaries once per worker.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ModelDefinitionError
from ..obs.trace import get_tracer

__all__ = ["CompiledStructureFunction"]

_TERMINAL_SLOTS = 2  # slot 0 = constant 0, slot 1 = constant 1

#: Below this many points a BDD program walks its nodes per point in
#: Python floats; from here on the per-node vectorized loop is cheaper.
#: Measured crossover on a 2-vCPU x86 host: 24-48 points for Boeing
#: trees of 259-980 BDD nodes (one point: ~35 µs walked vs ~0.7 ms
#: looped over the 259-node default tree).
_VECTOR_MIN_POINTS = 32


class CompiledStructureFunction:
    """A structure function lowered to a vectorized evaluation program.

    Build with one of the classmethods (:meth:`from_rbd`,
    :meth:`from_fault_tree`, :meth:`from_bdd`); evaluate either point
    by point with :meth:`prob` (bit-identical to the uncompiled model)
    or for a whole sweep with :meth:`evaluate`.

    Attributes
    ----------
    names:
        Component/variable names in column order for :meth:`evaluate`.
    kind:
        ``"up"`` when the function computes system-up probability from
        component up-probabilities (RBDs); ``"event"`` when it computes
        top-event probability from event occurrence probabilities
        (fault trees / raw BDDs).
    """

    def __init__(
        self,
        names: Sequence[str],
        *,
        tree: Optional[tuple] = None,
        bdd_program: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, int]] = None,
        kind: str = "up",
        missing_message: str = "missing up-probabilities for components: {}",
        required: Optional[Sequence[str]] = None,
    ):
        self.names: Tuple[str, ...] = tuple(names)
        self.kind = kind
        self._col: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        if (tree is None) == (bdd_program is None):
            raise ModelDefinitionError("exactly one of tree / bdd_program is required")
        self._tree = tree
        self._bdd_program = bdd_program
        if bdd_program is not None:
            cols, lows, highs, _ = bdd_program
            self._bdd_steps = list(zip(cols.tolist(), lows.tolist(), highs.tolist()))
        self._missing_message = missing_message
        # Names whose absence prob() reports — all of them for RBDs, the
        # BDD support for fault trees (mirroring the uncompiled checks).
        self._required: Tuple[str, ...] = tuple(self.names if required is None else required)

    @property
    def n_components(self) -> int:
        """Number of component/variable columns (the model-scale metric
        a serving registry advertises for non-state-space structure)."""
        return len(self.names)

    # -------------------------------------------------------- construction
    @classmethod
    def from_rbd(cls, rbd) -> "CompiledStructureFunction":
        """Compile a :class:`~repro.nonstate.ReliabilityBlockDiagram`.

        Mirrors the RBD's own dispatch: independent (non-repeating)
        diagrams lower to the tree program, diagrams with repeated
        components build the BDD once and lower that.
        """
        names = list(rbd.components)  # first-occurrence order
        if rbd.has_repeated_components:
            manager, node = rbd._ensure_bdd()
            return cls.from_bdd(manager, node, kind="up",
                                missing_message="missing up-probabilities for components: {}",
                                required=names)
        col = {name: i for i, name in enumerate(names)}
        spec = _lower_block(rbd.root, col)
        return cls(names, tree=spec, kind="up")

    @classmethod
    def from_fault_tree(cls, tree) -> "CompiledStructureFunction":
        """Compile a :class:`~repro.nonstate.FaultTree` top-event function."""
        manager, node = tree._ensure_bdd()
        return cls.from_bdd(manager, node, kind="event",
                            missing_message="missing probabilities for variables: {}")

    @classmethod
    def from_bdd(
        cls,
        manager,
        node: int,
        kind: str = "event",
        missing_message: str = "missing probabilities for variables: {}",
        required: Optional[Sequence[str]] = None,
    ) -> "CompiledStructureFunction":
        """Compile an arbitrary BDD node into the flat-array program.

        Reachable non-terminals are laid out in decreasing-level order;
        in an ordered BDD every child sits strictly deeper than its
        parent, so by the time a node is evaluated both children already
        hold their values.
        """
        order = manager.var_order
        # Collect reachable non-terminals.
        reachable: List[int] = []
        seen = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n in (0, 1) or n in seen:
                continue
            seen.add(n)
            reachable.append(n)
            low, high = manager.children(n)
            stack.append(low)
            stack.append(high)
        reachable.sort(key=manager.level, reverse=True)
        slot_of = {0: 0, 1: 1}
        for i, n in enumerate(reachable):
            slot_of[n] = _TERMINAL_SLOTS + i
        cols = np.empty(len(reachable), dtype=np.int64)
        lows = np.empty(len(reachable), dtype=np.int64)
        highs = np.empty(len(reachable), dtype=np.int64)
        for i, n in enumerate(reachable):
            cols[i] = manager.level(n)
            low, high = manager.children(n)
            lows[i] = slot_of[low]
            highs[i] = slot_of[high]
        root_slot = slot_of[node]
        if required is None:
            required = manager.support(node)
        return cls(order, bdd_program=(cols, lows, highs, root_slot),
                   kind=kind, missing_message=missing_message, required=required)

    # ---------------------------------------------------------- evaluation
    def evaluate(self, probabilities: np.ndarray) -> np.ndarray:
        """Evaluate all sweep points in one vectorized pass.

        Parameters
        ----------
        probabilities:
            ``(n_points, len(self.names))`` matrix; column ``j`` holds
            the probability for ``self.names[j]`` at every point.

        Returns
        -------
        ``(n_points,)`` vector, bit-identical to evaluating the
        uncompiled model at each row.
        """
        P = np.asarray(probabilities, dtype=float)
        if P.ndim != 2 or P.shape[1] != len(self.names):
            raise ModelDefinitionError(
                f"expected an (n_points, {len(self.names)}) matrix, got shape {P.shape}"
            )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter("compile.reuse", kind="structure").inc()
        if self._tree is not None:
            return _eval_tree(self._tree, P)
        return self._eval_bdd(P)

    def _eval_bdd(self, P: np.ndarray) -> np.ndarray:
        cols, lows, highs, root_slot = self._bdd_program
        n_points = P.shape[0]
        if n_points < _VECTOR_MIN_POINTS:
            out = np.empty(n_points)
            for i, row in enumerate(P.tolist()):
                vals = [0.0, 1.0]
                for col, low, high in self._bdd_steps:
                    p = row[col]
                    vals.append((1.0 - p) * vals[low] + p * vals[high])
                out[i] = vals[root_slot]
            return out
        vals = np.empty((_TERMINAL_SLOTS + len(cols), n_points))
        vals[0] = 0.0
        vals[1] = 1.0
        for i in range(len(cols)):
            p = P[:, cols[i]]
            vals[_TERMINAL_SLOTS + i] = (1.0 - p) * vals[lows[i]] + p * vals[highs[i]]
        return vals[root_slot].copy()

    def prob(self, probabilities: Mapping[str, float]) -> float:
        """Single-point evaluation with the uncompiled error contract.

        Performs the same missing-name check (same exception, same
        message) as ``system_up_probability`` /
        ``top_event_probability`` before evaluating, then runs the
        vectorized program on a one-row matrix.
        """
        missing = [name for name in self._required if name not in probabilities]
        if missing:
            raise ModelDefinitionError(self._missing_message.format(missing))
        row = np.array([[float(probabilities.get(name, 0.0)) for name in self.names]])
        return float(self.evaluate(row)[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "tree" if self._tree is not None else "bdd"
        return (
            f"CompiledStructureFunction(mode={mode!r}, kind={self.kind!r}, "
            f"n_components={len(self.names)})"
        )


def _lower_block(block, col: Mapping[str, int]) -> tuple:
    """Lower an RBD block tree into the nested evaluation spec."""
    from ..nonstate.rbd import BasicBlock, KofN, Parallel, Series

    if isinstance(block, BasicBlock):
        return ("leaf", col[block.component.name])
    if isinstance(block, Series):
        return ("series", tuple(_lower_block(b, col) for b in block.blocks))
    if isinstance(block, Parallel):
        return ("parallel", tuple(_lower_block(b, col) for b in block.blocks))
    if isinstance(block, KofN):
        return ("kofn", block.k, tuple(_lower_block(b, col) for b in block.blocks))
    raise ModelDefinitionError(f"cannot compile RBD block type {type(block).__name__}")


def _eval_tree(spec: tuple, P: np.ndarray) -> np.ndarray:
    """Vectorized tree evaluation replicating ``RBDBlock.up_probability``.

    Each recurrence applies the identical floating-point expression the
    scalar path applies, in the identical order, just elementwise over
    the point axis.
    """
    tag = spec[0]
    if tag == "leaf":
        return P[:, spec[1]].copy()
    if tag == "series":
        prob = np.ones(P.shape[0])
        for child in spec[1]:
            prob = prob * _eval_tree(child, P)
        return prob
    if tag == "parallel":
        prob_down = np.ones(P.shape[0])
        for child in spec[1]:
            prob_down = prob_down * (1.0 - _eval_tree(child, P))
        return 1.0 - prob_down
    # k-of-n counting DP over the number-up distribution, one row of
    # dist per sweep point.
    k, children = spec[1], spec[2]
    n_points = P.shape[0]
    dist = np.zeros((n_points, len(children) + 1))
    dist[:, 0] = 1.0
    for i, child in enumerate(children):
        p = _eval_tree(child, P)
        upper = i + 1
        dist[:, 1 : upper + 1] = dist[:, 1 : upper + 1] * (1.0 - p)[:, None] + dist[
            :, 0:upper
        ] * p[:, None]
        dist[:, 0] *= 1.0 - p
    return np.sum(dist[:, k:], axis=1)
