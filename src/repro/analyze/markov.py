"""Analyzer passes for Markov models (CTMC / DTMC generators).

Two layers:

* :func:`generator_defects` is the **shared strict scan** — the single
  implementation of the generator-invariant checks (square, finite,
  non-negative off-diagonals, conservative rows) that
  :func:`repro.markov.solvers.validate_generator` raises from.  Check
  order, tolerances and messages are the contract: every steady-state
  solver, the fallback chain and the compiled kernels accept/reject
  bit-identically because they all call this one function.
* :func:`lint_generator` / :func:`lint_ctmc` / :func:`lint_dtmc` are the
  **full lint passes**: the strict scan plus the structural warnings the
  tutorial's pre-flight folklore consists of — absorbing states under a
  steady-state query, reducible chains, transient-only components,
  stiffness spread.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from ..markov.registry import POLICY
from .diagnostics import ERROR, Diagnostic

__all__ = [
    "generator_defects",
    "lint_generator",
    "lint_ctmc",
    "lint_dtmc",
    "lint_mrgp",
]

def _state_label(states: Optional[Sequence], index: int) -> str:
    if states is not None and index < len(states):
        return f"state {states[index]!r}"
    return f"row {index}"


def generator_defects(
    generator, tol: float = POLICY.generator_tol
) -> Tuple[int, List[Diagnostic]]:
    """Strict error scan of a CTMC generator; returns ``(n, defects)``.

    The checks, their order, their tolerance scaling and their messages
    replicate the historical ``validate_generator`` exactly — that
    function now raises ``defects[0].message``, so accept/reject
    behaviour cannot drift between the solvers and the lint.

    Also valid for the ``P - I`` matrices the DTMC stationary solver
    feeds to GTH.
    """
    defects: List[Diagnostic] = []
    if sparse.issparse(generator):
        q = sparse.csr_matrix(generator, dtype=float)
        n = q.shape[0]
        if q.shape != (n, n):
            return n, [
                Diagnostic(
                    "M004",
                    f"generator must be square, got shape {q.shape}",
                    location=f"shape {q.shape}",
                )
            ]
        data = q.data
        finite = not (data.size and not np.all(np.isfinite(data)))
        scale = max(1.0, float(np.abs(data).max())) if data.size else 1.0
        off = q - sparse.diags(q.diagonal())
        min_off = float(off.data.min()) if off.data.size else 0.0
        row_sums = np.asarray(q.sum(axis=1)).ravel()
    else:
        a = np.asarray(generator, dtype=float)
        n = a.shape[0] if a.ndim == 2 else -1
        if a.ndim != 2 or a.shape != (n, n):
            return n, [
                Diagnostic(
                    "M004",
                    f"generator must be square, got shape {a.shape}",
                    location=f"shape {a.shape}",
                )
            ]
        finite = bool(np.all(np.isfinite(a)))
        scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
        off_mask = ~np.eye(n, dtype=bool)
        min_off = float(a[off_mask].min()) if n > 1 else 0.0
        row_sums = a.sum(axis=1)
    if not finite:
        defects.append(Diagnostic("M003", "generator contains non-finite entries"))
        # NaN propagates into scale; keep the remaining comparisons
        # meaningful by falling back to the unscaled tolerance.
        if not np.isfinite(scale):
            scale = 1.0
    if min_off < -tol * scale:
        defects.append(
            Diagnostic(
                "M002",
                f"generator has a negative off-diagonal rate {min_off:.6g}; "
                f"transition rates must be non-negative",
            )
        )
    if row_sums.size:
        finite_sums = np.where(np.isfinite(row_sums), row_sums, 0.0)
        worst = int(np.abs(finite_sums).argmax())
        deviation = float(row_sums[worst])
        if abs(deviation) > tol * scale:
            defects.append(
                Diagnostic(
                    "M001",
                    f"generator row {worst} sums to {deviation:.6g} (tolerance "
                    f"{tol * scale:.3g}); CTMC generator rows must sum to zero — "
                    f"check the diagonal of that row",
                    location=f"row {worst}",
                )
            )
    return n, defects


def lint_generator(
    generator,
    tol: float = POLICY.generator_tol,
    query: Optional[str] = None,
    states: Optional[Sequence] = None,
) -> List[Diagnostic]:
    """Full lint of a CTMC generator: strict scan + structural warnings.

    Parameters
    ----------
    query:
        ``None`` (generic lint), ``"steady_state"`` or ``"transient"``.
        Under a steady-state query, absorbing states and reducibility
        are **escalated to errors** — the stationary vector either
        collapses onto the absorbing states or is not unique, so the
        query is ill-posed.  Under a transient query those structural
        findings are suppressed entirely (an absorbing reliability
        chain is the textbook transient model).
    states:
        Optional state labels for location strings.

    M103 (stiffness) fires at the ratio where the solver policy puts GTH
    first, ``POLICY.gth_first_stiffness`` — the spread where naive
    elimination starts losing precision (failures per 1e5 h vs repairs
    per hour sits around 1e7–1e10).
    """
    n, diagnostics = generator_defects(generator, tol)
    if n <= 0 or any(d.code == "M004" for d in diagnostics):
        return diagnostics
    has_errors = bool(diagnostics)
    q = sparse.csr_matrix(generator, dtype=float)
    off = q - sparse.diags(q.diagonal())
    off.eliminate_zeros()
    positive = off.data[off.data > 0.0]
    max_rate = float(positive.max()) if positive.size else 0.0
    min_rate = float(positive.min()) if positive.size else 0.0

    structural = query in (None, "steady_state") and not has_errors
    escalate = ERROR if query == "steady_state" else ""
    if structural:
        # Absorbing states: no positive off-diagonal rate in the row.
        out_rate = np.asarray(off.maximum(0.0).sum(axis=1)).ravel()
        absorbing = np.flatnonzero(out_rate <= 0.0)
        if n > 1:
            for i in absorbing[:8]:
                diagnostics.append(
                    Diagnostic(
                        "M101",
                        f"{_state_label(states, int(i))} is absorbing (no outgoing "
                        f"rate); steady-state probability concentrates on the "
                        f"absorbing set",
                        location=_state_label(states, int(i)),
                        severity=escalate,
                    )
                )
            if absorbing.size > 8:
                diagnostics.append(
                    Diagnostic(
                        "M101",
                        f"{absorbing.size - 8} further absorbing states (of "
                        f"{absorbing.size} total)",
                        severity=escalate,
                    )
                )
        n_comp, labels = csgraph.connected_components(
            off, directed=True, connection="strong"
        )
        if n_comp > 1:
            diagnostics.append(
                Diagnostic(
                    "M102",
                    f"chain is not irreducible ({n_comp} strongly connected "
                    f"components); the stationary vector is not unique — solve "
                    f"the recurrent class(es) separately",
                    severity=escalate,
                )
            )
            # Transient components: their states leak probability and
            # carry zero stationary mass.
            adjacency = off > 0.0
            rows, cols = adjacency.nonzero()
            escaping = {
                int(labels[i]) for i, j in zip(rows, cols) if labels[i] != labels[j]
            }
            n_transient = int(np.isin(labels, list(escaping)).sum()) if escaping else 0
            if n_transient:
                diagnostics.append(
                    Diagnostic(
                        "M104",
                        f"{n_transient} state(s) lie in transient components "
                        f"(paths leave, none return); they carry zero "
                        f"steady-state probability",
                    )
                )
    if min_rate > 0.0 and max_rate / min_rate >= POLICY.gth_first_stiffness:
        diagnostics.append(
            Diagnostic(
                "M103",
                f"stiffness ratio {max_rate / min_rate:.3g} (max rate "
                f"{max_rate:.3g} / min rate {min_rate:.3g}) exceeds "
                f"{POLICY.gth_first_stiffness:.1g}",
            )
        )
    return diagnostics


def lint_ctmc(chain, query: Optional[str] = None) -> List[Diagnostic]:
    """Lint a :class:`~repro.markov.CTMC` (labelled locations)."""
    if chain.n_states == 0:
        return [Diagnostic("M004", "chain has no states")]
    return lint_generator(chain.generator(), query=query, states=chain.states)


def lint_mrgp(mrgp, query: Optional[str] = None) -> List[Diagnostic]:
    """Lint a :class:`~repro.markov.MarkovRegenerativeProcess`.

    Rate checks on the exponential transitions (M002/M003) plus the
    structural checks on the *union* graph of exponential moves and
    general-transition firings — a state is only absorbing (M101) /
    a component only escapes (M102) if neither kind of transition
    leaves it.
    """
    states = mrgp._states
    n = len(states)
    if n == 0:
        return [Diagnostic("M004", "MRGP has no states")]
    index = {s: i for i, s in enumerate(states)}
    diagnostics: List[Diagnostic] = []
    adjacency = np.zeros((n, n))
    for (src, dst), rate in sorted(mrgp._exp_rates.items(), key=repr):
        if not np.isfinite(rate):
            diagnostics.append(
                Diagnostic(
                    "M003",
                    f"exponential transition {src!r} -> {dst!r} has non-finite "
                    f"rate {rate!r}",
                    location=f"transition {src!r}->{dst!r}",
                )
            )
        elif rate < 0.0:
            diagnostics.append(
                Diagnostic(
                    "M002",
                    f"exponential transition {src!r} -> {dst!r} has negative "
                    f"rate {rate:.6g}; transition rates must be non-negative",
                    location=f"transition {src!r}->{dst!r}",
                )
            )
        elif rate > 0.0:
            adjacency[index[src], index[dst]] = 1.0
    for transition in mrgp._generals:
        for src, dst in transition.targets.items():
            adjacency[index[src], index[dst]] = 1.0
    if query in (None, "steady_state") and not diagnostics and n > 1:
        escalate = ERROR if query == "steady_state" else ""
        for i in np.flatnonzero(adjacency.sum(axis=1) == 0.0)[:8]:
            diagnostics.append(
                Diagnostic(
                    "M101",
                    f"{_state_label(states, int(i))} is absorbing (no exponential "
                    f"or general transition leaves it); steady-state probability "
                    f"concentrates on the absorbing set",
                    location=_state_label(states, int(i)),
                    severity=escalate,
                )
            )
        n_comp, _labels = csgraph.connected_components(
            sparse.csr_matrix(adjacency), directed=True, connection="strong"
        )
        if n_comp > 1:
            diagnostics.append(
                Diagnostic(
                    "M102",
                    f"MRGP is not irreducible ({n_comp} strongly connected "
                    f"components); the stationary vector is not unique — solve "
                    f"the recurrent class(es) separately",
                    severity=escalate,
                )
            )
    return diagnostics


def lint_dtmc(chain) -> List[Diagnostic]:
    """Lint a :class:`~repro.markov.DTMC` transition matrix (M110)."""
    if chain.n_states == 0:
        return [Diagnostic("M004", "chain has no states")]
    p = chain.transition_matrix(validate=False)
    states = chain.states
    diagnostics: List[Diagnostic] = []
    row_sums = p.sum(axis=1)
    for i in range(p.shape[0]):
        bad_sum = not np.isclose(row_sums[i], 1.0, atol=1e-9)
        negative = bool((p[i] < 0.0).any())
        if bad_sum or negative:
            reason = "has a negative entry" if negative else f"sums to {row_sums[i]:.6g}"
            diagnostics.append(
                Diagnostic(
                    "M110",
                    f"transition-matrix row of {_state_label(states, i)} {reason}; "
                    f"each row must be a probability distribution",
                    location=_state_label(states, i),
                )
            )
    return diagnostics
