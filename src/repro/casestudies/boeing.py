"""Boeing 787-scale fault-tree bounding (tutorial case study, E05).

The tutorial recounts that a major Boeing 787 subsystem model (the
current return network) was too large for exact fault-tree solution, and
was certified using **bounding algorithms** instead.  The actual tree is
proprietary, so this module provides a *scalable synthetic generator*
with the same structural features — thousands of basic events, heavy
event repetition across gates, mixed AND/OR/k-of-n logic — on which the
bounds exhibit exactly the behaviour the tutorial claims:

* truncated bounds converge monotonically to the exact value as the
  truncation depth/order grows;
* low-order truncation is orders of magnitude cheaper than exact
  quantification while already tight for high-reliability parameters.

The generator is deterministic given a seed, so benchmarks are
reproducible.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Tuple

import numpy as np

from .._memo import BoundedMemo
from ..exceptions import ModelDefinitionError
from ..nonstate.bounds import FaultTreeBounds
from ..nonstate.faulttree import AndGate, BasicEvent, FaultTree, KofNGate, OrGate

__all__ = [
    "generate_boeing_style_tree",
    "bounds_convergence_table",
    "resolve_parameters",
    "evaluate_availability",
]

#: Genuine lint findings (``python -m repro.analyze boeing``): the shared
#: ground-strap events repeat across sections *by design* — defeating
#: naive quantification is the point of the case study.
__diagnostics_acknowledged__ = {
    "S004": "shared events repeat across sections by design; BDD evaluation is the subject"
}


def generate_boeing_style_tree(
    n_sections: int = 8,
    events_per_section: int = 6,
    shared_events: int = 4,
    event_probability: float = 1.0e-3,
    shared_probability: float = 5.0e-4,
    seed: int = 2016,
) -> FaultTree:
    """A synthetic current-return-network-style fault tree.

    Structure: the network is divided into ``n_sections`` physical
    sections; each section fails when 2 of its 3 redundant paths fail,
    where every path is an AND of section-local events *plus* events
    drawn from a small pool of ``shared_events`` (ground straps / common
    returns) that repeat across sections — the repetition that defeats
    naive quantification.  The top event is an OR over sections.

    Parameters mirror the knobs the E05 benchmark sweeps.
    """
    rng = np.random.default_rng(seed)
    shared = [
        BasicEvent.fixed(f"shared{k}", shared_probability) for k in range(shared_events)
    ]
    sections = []
    for s in range(n_sections):
        local = [
            BasicEvent.fixed(f"s{s}_e{i}", event_probability)
            for i in range(events_per_section)
        ]
        paths = []
        for p in range(3):
            pick_local = rng.choice(len(local), size=2, replace=False)
            pick_shared = rng.choice(len(shared), size=1, replace=False)
            members = [local[i] for i in pick_local] + [shared[i] for i in pick_shared]
            paths.append(AndGate(members))
        sections.append(KofNGate(2, paths))
    return FaultTree(OrGate(sections))


def bounds_convergence_table(
    tree: FaultTree,
    depths: Optional[List[int]] = None,
) -> List[Tuple[int, float, float, float]]:
    """E05 rows: (depth, lower, upper, exact) for Bonferroni truncation.

    The exact value is the BDD answer (feasible here because the
    synthetic tree is kept at a size where the oracle still runs —
    the benchmark then scales past it and reports bound width only).
    """
    analysis = FaultTreeBounds(tree)
    exact = analysis.exact()
    rows: List[Tuple[int, float, float, float]] = []
    for depth in depths or [1, 2, 3, 4]:
        lower, upper = analysis.bonferroni(depth)
        rows.append((depth, lower, upper, exact))
    return rows


#: Generator knobs the point-evaluator wrapper accepts (and their
#: defaults); these are the :func:`generate_boeing_style_tree` keyword
#: arguments — there is no dataclass because the "model" is a generator.
PARAMETER_DEFAULTS = {
    "n_sections": 8,
    "events_per_section": 6,
    "shared_events": 4,
    "event_probability": 1.0e-3,
    "shared_probability": 5.0e-4,
    "seed": 2016,
}

#: integer-valued generator knobs (counts / seed, not probabilities)
_INT_FIELDS = ("n_sections", "events_per_section", "shared_events", "seed")

#: smallest admissible value of each count knob: every section picks two
#: distinct local events and one shared event per path
_COUNT_MINIMUMS = {"n_sections": 1, "events_per_section": 2, "shared_events": 1}

#: Cap on the generator's basic events
#: (``n_sections * events_per_section + shared_events``).  It bounds the
#: tree one sweep point may ask for, and with it each entry of the
#: compiled evaluator's structure memo: the E05 scale study stops at
#: 64 sections (388 events), while ``n_sections=1e9`` would otherwise
#: allocate events until the host runs out of memory.  BDD size also
#: grows with how densely the shared events interleave the sections, so
#: sharing-heavy trees well inside the cap can still be slow to build.
MAX_BASIC_EVENTS = 1024


def resolve_parameters(assignment: Mapping[str, float]) -> dict:
    """Validate a (partial) assignment and merge it over the defaults.

    Values must be finite and non-negative; the count fields (and the
    ``seed``) must additionally be whole numbers, at least 1 (2 for
    ``events_per_section``), and together describe at most
    :data:`MAX_BASIC_EVENTS` basic events.  Violations and unknown names
    raise a :class:`~repro.exceptions.ModelDefinitionError` — unknown
    names list the valid field names, the same contract as the
    BladeCenter evaluator.

    Returns the full keyword dict for :func:`generate_boeing_style_tree`.
    """
    merged = dict(PARAMETER_DEFAULTS)
    for name, value in assignment.items():
        if name not in PARAMETER_DEFAULTS:
            raise ModelDefinitionError(
                f"unknown Boeing parameter(s) {[name]};"
                f" valid names: {sorted(PARAMETER_DEFAULTS)}"
            )
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ModelDefinitionError(
                f"Boeing parameter {name!r} must be finite and non-negative, got {value}"
            )
        if name in _INT_FIELDS:
            if value != int(value):
                raise ModelDefinitionError(
                    f"Boeing parameter {name!r} must be a whole number, got {value}"
                )
            merged[name] = int(value)
        else:
            merged[name] = value
    for name, minimum in _COUNT_MINIMUMS.items():
        if merged[name] < minimum:
            raise ModelDefinitionError(
                f"Boeing parameter {name!r} must be at least {minimum}, got {merged[name]}"
            )
    n_events = (
        merged["n_sections"] * merged["events_per_section"] + merged["shared_events"]
    )
    if n_events > MAX_BASIC_EVENTS:
        raise ModelDefinitionError(
            f"Boeing tree would have {n_events} basic events (n_sections * "
            f"events_per_section + shared_events); the cap is {MAX_BASIC_EVENTS}"
        )
    return merged


#: Structure key ``(n_sections, events_per_section, shared_events,
#: seed)`` → (compiled top-event function, per-column "is a shared
#: event" mask).  Sweeps vary probabilities over a handful of trees, and
#: :data:`MAX_BASIC_EVENTS` bounds each entry.
_STRUCTURE_CACHE_LIMIT = 8
_STRUCTURE_CACHE: "BoundedMemo[tuple]" = BoundedMemo(_STRUCTURE_CACHE_LIMIT)


def _compiled_tree(key: Tuple[int, int, int, int]) -> tuple:
    """The memoized compiled fault tree of one structure key (the
    compiled evaluator's build-once step; the probabilities only fill
    its columns)."""
    return _STRUCTURE_CACHE.get(key, lambda: _build_compiled_tree(*key))


def _build_compiled_tree(
    n_sections: int, events_per_section: int, shared_events: int, seed: int
) -> tuple:
    from ..compile.structure import CompiledStructureFunction

    tree = generate_boeing_style_tree(
        n_sections=n_sections,
        events_per_section=events_per_section,
        shared_events=shared_events,
        seed=seed,
    )
    sf = CompiledStructureFunction.from_fault_tree(tree)
    return sf, np.array([name.startswith("shared") for name in sf.names])


def evaluate_availability(assignment: Mapping[str, float]) -> float:
    """Probability the top event does *not* occur, for a sweep point.

    Keys are the :func:`generate_boeing_style_tree` knobs; unassigned
    knobs keep the published defaults.  The generator is deterministic
    given the ``seed``, so this is a pure function of the assignment —
    module-level and picklable, the engine / serving-registry evaluator
    for the E05 case study.
    """
    tree = generate_boeing_style_tree(**resolve_parameters(assignment))
    return float(1.0 - tree.top_event_probability())


#: The engine's ``compile=True`` substitution and the serve registry
#: resolve this to the compiled evaluator, which builds the BDD once
#: per structure instead of once per point (lazy string spec —
#: importing the case study must not pull in the compile machinery).
evaluate_availability.__compiles_to__ = "repro.compile.model:CompiledBoeingTree"
