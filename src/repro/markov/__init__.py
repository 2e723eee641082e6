"""State-space dependability models (systems S8–S13 in DESIGN.md).

Continuous- and discrete-time Markov chains, Markov reward models,
semi-Markov and Markov regenerative processes, phase-type distributions,
and the numeric solver kernels (GTH, uniformization) they share.
"""

from .acyclic import AcyclicTransientSolution, ExpPolynomial, acyclic_transient
from .adapters import MRGPAvailabilityModel, SemiMarkovDependabilityModel
from .ctmc import CTMC, MarkovDependabilityModel
from .dtmc import DTMC
from .fallback import (
    GeneratorDiagnostics,
    SolverAttempt,
    SolverReport,
    generator_diagnostics,
    solve_steady_state,
)
from .mrgp import GeneralTransition, MarkovRegenerativeProcess
from .mrm import MarkovRewardModel
from .phase import PhaseType, as_phase_type, expand_two_state_availability, fit_phase_type
from .registry import STEADY_STATE, TRANSIENT, SolverMethod, SolverRegistry
from .sensitivity import reward_rate_derivative, steady_state_derivative
from .smp import SemiMarkovProcess
from .solvers import (
    cumulative_uniformization,
    gth_solve,
    poisson_truncation_point,
    solve_transient,
    steady_state_direct,
    steady_state_power,
    transient_ode,
    transient_uniformization,
    uniformized_matrix,
    validate_generator,
)

__all__ = [
    "CTMC",
    "acyclic_transient",
    "AcyclicTransientSolution",
    "ExpPolynomial",
    "DTMC",
    "MarkovDependabilityModel",
    "MarkovRewardModel",
    "SemiMarkovProcess",
    "SemiMarkovDependabilityModel",
    "MarkovRegenerativeProcess",
    "MRGPAvailabilityModel",
    "GeneralTransition",
    "PhaseType",
    "as_phase_type",
    "fit_phase_type",
    "expand_two_state_availability",
    "steady_state_derivative",
    "reward_rate_derivative",
    "gth_solve",
    "steady_state_direct",
    "steady_state_power",
    "uniformized_matrix",
    "poisson_truncation_point",
    "solve_transient",
    "transient_ode",
    "transient_uniformization",
    "cumulative_uniformization",
    "validate_generator",
    "generator_diagnostics",
    "GeneratorDiagnostics",
    "SolverAttempt",
    "SolverReport",
    "solve_steady_state",
    "SolverMethod",
    "SolverRegistry",
    "STEADY_STATE",
    "TRANSIENT",
]
