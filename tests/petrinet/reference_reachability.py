"""Independent reference for SRN reachability: the dict-built BFS.

A deliberately naive tangible BFS into a dict-based
:class:`~repro.markov.CTMC` — live :class:`Marking` objects as states,
one ``add_transition`` per firing.  It shares only the vanishing-SCC
solver (``_resolve_vanishing``) with the library's CSR builder, so the
byte-identity tests in ``tests/sparse/test_reachability.py`` check the
library's interning, triplet streaming and CSR assembly against code
that has none of them.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple

from repro.exceptions import StateSpaceError
from repro.markov.ctmc import CTMC
from repro.petrinet.net import Marking, PetriNet
from repro.sparse.reachability import _resolve_vanishing


class ReferenceReachability(NamedTuple):
    chain: CTMC
    initial: Dict[Marking, float]
    tangible: List[Marking]
    n_vanishing: int


def reference_reachability(
    net: PetriNet, max_markings: int = 200_000
) -> ReferenceReachability:
    """Tangible reachability CTMC of ``net``, visiting markings in BFS order."""
    initial = net.initial_marking()
    vanishing_seen = set()
    if net.is_vanishing(initial):
        vanishing_seen.add(initial)
        initial_distribution = _resolve_vanishing(net, initial, max_markings)
    else:
        initial_distribution = {initial: 1.0}

    chain = CTMC()
    tangible: List[Marking] = []
    seen = set()
    queue = deque()
    for marking in initial_distribution:
        seen.add(marking)
        tangible.append(marking)
        chain.add_state(marking)
        queue.append(marking)

    vanishing_cache: Dict[Marking, Dict[Marking, float]] = {}
    while queue:
        marking = queue.popleft()
        for transition in net.enabled_transitions(marking):
            rate = transition.rate_in(marking)
            if rate <= 0.0:
                continue
            successor = transition.fire(marking)
            if net.is_vanishing(successor):
                if successor not in vanishing_cache:
                    vanishing_seen.add(successor)
                    vanishing_cache[successor] = _resolve_vanishing(
                        net, successor, max_markings
                    )
                targets = vanishing_cache[successor]
            else:
                targets = {successor: 1.0}
            for target, prob in targets.items():
                if target == marking:
                    continue  # rate flows back: no net transition
                if target not in seen:
                    if len(seen) >= max_markings:
                        raise StateSpaceError(
                            f"reachability exceeded {max_markings} tangible markings"
                        )
                    seen.add(target)
                    tangible.append(target)
                    chain.add_state(target)
                    queue.append(target)
                chain.add_transition(marking, target, rate * prob)

    return ReferenceReachability(
        chain, initial_distribution, tangible, len(vanishing_seen)
    )
