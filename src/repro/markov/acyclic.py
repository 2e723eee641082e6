"""Closed-form transient solution of acyclic CTMCs (ACE algorithm).

Pure reliability models — no repair — have acyclic state graphs, and
their transient probabilities are *exactly* representable as sums of
exponential-polynomial terms ``c · t^m · e^{-d t}``.  Processing states
in topological order and integrating each inflow term analytically gives
a symbolic solution (the approach of HARP's ACE solver): no time
stepping, no truncation error, evaluable at any ``t`` in O(#terms).

This is both a fast path for mission-reliability studies and an
independent oracle for the uniformization solver.

.. note::
   Like all partial-fraction methods, the closed form is numerically
   ill-conditioned when many *nearly equal but distinct* rates occur on
   one path (coefficients grow like ``1/Δrate^depth`` with alternating
   signs).  It is intended for small-to-moderate acyclic models — the
   classical ACE use case; for long chains of similar rates prefer
   uniformization, or make the rates exactly equal (the resonant case is
   handled stably with polynomial terms).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Mapping, Tuple

import numpy as np

from ..exceptions import StateSpaceError
from .ctmc import CTMC

__all__ = ["ExpPolynomial", "AcyclicTransientSolution", "acyclic_transient"]

State = Hashable

#: rates closer than this are merged (resonant integration case)
_RATE_TOLERANCE = 1e-12


class ExpPolynomial:
    """A finite sum of terms ``c · t^m · e^{-d t}``.

    Immutable value object; the class supports the two operations the ACE
    recursion needs: scaling/adding, and solving ``y' + d y = f`` with
    ``y(0) = y0`` where ``f`` is an ExpPolynomial.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Tuple[float, int], float] = ()):
        cleaned: Dict[Tuple[float, int], float] = {}
        for (rate, power), coeff in dict(terms).items():
            if abs(coeff) > 0.0:
                cleaned[(float(rate), int(power))] = cleaned.get(
                    (float(rate), int(power)), 0.0
                ) + float(coeff)
        self._terms = {k: v for k, v in cleaned.items() if v != 0.0}

    @classmethod
    def exponential(cls, coefficient: float, rate: float) -> "ExpPolynomial":
        """The single term ``coefficient · e^{-rate t}``."""
        return cls({(rate, 0): coefficient})

    @property
    def terms(self) -> Dict[Tuple[float, int], float]:
        """Mapping ``(rate, power) -> coefficient`` (copy)."""
        return dict(self._terms)

    def __add__(self, other: "ExpPolynomial") -> "ExpPolynomial":
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, 0.0) + coeff
        return ExpPolynomial(merged)

    def scale(self, factor: float) -> "ExpPolynomial":
        """Pointwise multiplication by a scalar."""
        return ExpPolynomial({k: factor * c for k, c in self._terms.items()})

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        out = np.zeros_like(ts, dtype=float)
        for (rate, power), coeff in self._terms.items():
            out = out + coeff * ts**power * np.exp(-rate * ts)
        return out if out.ndim else float(out)

    def solve_linear_ode(self, diagonal: float, initial: float) -> "ExpPolynomial":
        """Closed-form solution of ``y' + diagonal·y = self``, ``y(0)=initial``.

        ``y(t) = e^{-d t} [ initial + ∫_0^t e^{d s} f(s) ds ]`` with each
        inflow term integrated analytically; the resonant case (inflow
        rate equal to ``diagonal``) raises the polynomial power.
        """
        d = float(diagonal)
        result: Dict[Tuple[float, int], float] = {}

        def add(rate: float, power: int, coeff: float) -> None:
            if coeff != 0.0:
                key = (rate, power)
                result[key] = result.get(key, 0.0) + coeff

        add(d, 0, float(initial))
        for (a, m), c in self._terms.items():
            b = a - d
            if abs(b) <= _RATE_TOLERANCE * max(1.0, abs(a), abs(d)):
                # resonance: ∫ s^m ds = t^{m+1}/(m+1)
                add(d, m + 1, c / (m + 1))
                continue
            m_fact = math.factorial(m)
            # steady part decaying at e^{-d t}:
            add(d, 0, c * m_fact / b ** (m + 1))
            # transient part decaying at e^{-a t}:
            for k in range(m + 1):
                add(a, k, -c * m_fact / (math.factorial(k) * b ** (m - k + 1)))
        return ExpPolynomial(result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [
            f"{c:+.4g}·t^{m}·e^(-{r:.4g}t)" for (r, m), c in sorted(self._terms.items())
        ]
        return "ExpPolynomial(" + " ".join(parts or ["0"]) + ")"


class AcyclicTransientSolution:
    """Symbolic transient solution of an acyclic CTMC.

    Attributes
    ----------
    chain:
        The analyzed chain.
    expressions:
        Mapping state → :class:`ExpPolynomial` for π_state(t).
    """

    def __init__(self, chain: CTMC, expressions: Dict[State, ExpPolynomial]):
        self.chain = chain
        self.expressions = expressions

    def probability(self, state: State, t):
        """π_state(t), exactly."""
        return self.expressions[state](t)

    def evaluate(self, times) -> np.ndarray:
        """Matrix of state probabilities, shape ``(len(times), n_states)``."""
        ts = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((ts.size, self.chain.n_states))
        for state, expr in self.expressions.items():
            out[:, self.chain.index_of(state)] = np.asarray(expr(ts))
        return out

    def reliability(self, up_states, t):
        """Σ over up states of π(t) — the usual mission-reliability readout."""
        ts = np.asarray(t, dtype=float)
        total = np.zeros_like(ts, dtype=float)
        for state in up_states:
            total = total + np.asarray(self.expressions[state](ts))
        return total if total.ndim else float(total)

    def n_terms(self) -> int:
        """Total number of exponential-polynomial terms in the solution."""
        return sum(len(expr.terms) for expr in self.expressions.values())


def acyclic_transient(chain: CTMC, initial) -> AcyclicTransientSolution:
    """Symbolically solve an acyclic CTMC's transient behaviour.

    Parameters
    ----------
    chain:
        A CTMC whose transition graph is acyclic (typical of no-repair
        reliability models).  Cyclic chains raise
        :class:`~repro.exceptions.StateSpaceError`.
    initial:
        Initial state label or distribution mapping.

    Examples
    --------
    >>> chain = CTMC()
    >>> _ = chain.add_transition(2, 1, 2.0)
    >>> _ = chain.add_transition(1, 0, 1.0)
    >>> solution = acyclic_transient(chain, 2)
    >>> round(solution.probability(2, 0.5), 10)    # e^{-2·0.5}
    0.3678794412
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(chain.states)
    for src in chain.states:
        for dst in chain.states:
            if src != dst and chain.rate(src, dst) > 0:
                graph.add_edge(src, dst)
    if not nx.is_directed_acyclic_graph(graph):
        raise StateSpaceError(
            "chain has cycles; the ACE closed form needs an acyclic graph "
            "(use uniformization instead)"
        )

    if isinstance(initial, Mapping):
        p0 = {state: float(initial.get(state, 0.0)) for state in chain.states}
    else:
        p0 = {state: (1.0 if state == initial else 0.0) for state in chain.states}

    expressions: Dict[State, ExpPolynomial] = {}
    for state in nx.topological_sort(graph):
        inflow = ExpPolynomial()
        for pred in graph.predecessors(state):
            rate = chain.rate(pred, state)
            inflow = inflow + expressions[pred].scale(rate)
        diagonal = chain.exit_rate(state)
        expressions[state] = inflow.solve_linear_ode(diagonal, p0[state])
    return AcyclicTransientSolution(chain, expressions)
