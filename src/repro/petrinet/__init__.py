"""Stochastic Petri nets / stochastic reward nets (system S14 in DESIGN.md).

A concise net description — places, timed and immediate transitions,
input/output/inhibitor arcs, guards, marking-dependent rates — from which
the underlying CTMC is generated automatically, with vanishing-marking
elimination.  This is the tutorial's answer to hand-building large
dependent-failure Markov chains.
"""

from .net import Marking, PetriNet, Place, Transition
from .srn import SRNDependabilityModel, StochasticRewardNet

__all__ = [
    "PetriNet",
    "Place",
    "Transition",
    "Marking",
    "StochasticRewardNet",
    "SRNDependabilityModel",
]
