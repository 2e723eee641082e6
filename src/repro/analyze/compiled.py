"""Analyzer passes for compiled models (:mod:`repro.compile`).

:func:`validate_terms` is the shared strict walk — it lives next to the
term types in :mod:`repro.compile.ctmc` and :meth:`CompiledCTMC.validate`
delegates to it, so the raise-mode contract
(a ``KeyError`` for a missing parameter, the ``check_rate``
:class:`~repro.exceptions.DistributionError` for a bad value, in term
order) cannot drift between the fill path and the lint.  The collect-mode
functions translate those same failures into C001/C002 diagnostics, and
— when a full parameter point is supplied — lint the filled generator
with the Markov passes.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from .._validation import check_rate
from ..compile.ctmc import term_parameters, validate_terms
from ..exceptions import DistributionError
from .diagnostics import Diagnostic

__all__ = [
    "validate_terms",
    "term_parameters",
    "lint_compiled_ctmc",
    "lint_compiled_evaluator",
]


def lint_compiled_ctmc(
    compiled,
    values: Optional[Mapping[str, float]] = None,
    query: Optional[str] = None,
) -> List[Diagnostic]:
    """Lint a :class:`~repro.compile.CompiledCTMC`.

    Without ``values`` only the structure is known, so nothing can fail —
    the interesting checks need a parameter point: C001 for rate terms
    reading unsupplied parameters, C002 for terms evaluating to invalid
    rates, and (when every slot fills cleanly) the full Markov lint of
    the filled generator.
    """
    from ..compile.ctmc import Sum

    diagnostics: List[Diagnostic] = []
    if values is None:
        return diagnostics
    clean = True
    reported_missing = set()
    for i, j, tid in zip(compiled._trip_rows, compiled._trip_cols, compiled._term_ids):
        location = f"transition {compiled.states[i]!r} -> {compiled.states[j]!r}"
        slot = compiled._terms[tid]
        for term in slot.terms if isinstance(slot, Sum) else (slot,):
            missing = [
                name
                for name in term_parameters(term)
                if name not in values and name not in reported_missing
            ]
            for name in missing:
                reported_missing.add(name)
                diagnostics.append(
                    Diagnostic(
                        "C001",
                        f"rate term of {location} reads parameter {name!r}, "
                        f"which the supplied values do not define",
                        location=location,
                    )
                )
            if any(name not in values for name in term_parameters(term)):
                clean = False
                continue
            try:
                check_rate(term(values))
            except DistributionError as exc:
                clean = False
                diagnostics.append(
                    Diagnostic(
                        "C002",
                        f"rate term of {location} evaluates to an invalid "
                        f"rate: {exc}",
                        location=location,
                    )
                )
    if clean:
        from .markov import lint_generator

        diagnostics.extend(
            lint_generator(
                compiled.generator(values), query=query, states=compiled.states
            )
        )
    return diagnostics


def lint_compiled_evaluator(
    evaluator,
    values: Optional[Mapping[str, float]] = None,
    query: Optional[str] = None,
) -> List[Diagnostic]:
    """Lint a :class:`~repro.compile.CompiledEvaluator`.

    U001 flags assignment keys the evaluator does not accept (the same
    condition ``resolve_parameters`` rejects at evaluation time), then
    every embedded :class:`CompiledCTMC` found on the evaluator is linted
    with whatever parameter values are available.
    """
    from ..compile.ctmc import CompiledCTMC

    diagnostics: List[Diagnostic] = []
    accepted = set(evaluator.parameters)
    if values is not None and accepted:
        unknown = sorted(set(values) - accepted)
        if unknown:
            diagnostics.append(
                Diagnostic(
                    "U001",
                    f"assignment defines parameter(s) "
                    f"{', '.join(repr(u) for u in unknown)} that "
                    f"{type(evaluator).__name__} does not accept",
                )
            )
    embedded: List[Tuple[str, CompiledCTMC]] = []
    for attr, value in sorted(vars(evaluator).items()):
        if isinstance(value, CompiledCTMC):
            embedded.append((attr, value))
        elif isinstance(value, dict):
            embedded.extend(
                (f"{attr}[{key!r}]", v)
                for key, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
                if isinstance(v, CompiledCTMC)
            )
    known = accepted | (set(values) if values is not None else set())
    for where, chain in embedded:
        # Sweep assignments are usually partial — the evaluator resolves
        # defaults for the rest — so a chain parameter is only
        # "unsupplied" (C001) when *neither* the assignment nor the
        # evaluator's accepted parameter set can ever provide it.
        orphaned = [name for name in chain.parameters if name not in known]
        for name in orphaned:
            diagnostics.append(
                Diagnostic(
                    "C001",
                    f"{where}: a rate term reads parameter {name!r}, which "
                    f"{type(evaluator).__name__} neither accepts nor defaults",
                    location=where,
                )
            )
        # Value-level checks need a complete point; a partial assignment
        # cannot distinguish "bad value" from "default not yet applied".
        if values is not None and not orphaned and set(chain.parameters) <= set(values):
            for diag in lint_compiled_ctmc(chain, values=values, query=query):
                diagnostics.append(
                    Diagnostic(
                        diag.code,
                        f"{where}: {diag.message}",
                        location=f"{where}: {diag.location}" if diag.location else where,
                        severity=diag.severity,
                    )
                )
    return diagnostics
