"""Shared argument-validation helpers.

These helpers centralise the checks that every public entry point needs
(positive rates, probabilities in [0, 1], non-negative times) so error
messages are uniform across the library.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .exceptions import DistributionError, ModelDefinitionError

__all__ = [
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_rate",
    "check_time",
    "check_times",
    "as_time_array",
    "initial_vector",
]


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` is a probability in the closed interval [0, 1]."""
    value = float(value)
    if not (0.0 <= value <= 1.0) or np.isnan(value):
        raise ModelDefinitionError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_positive(value: float, name: str = "value") -> float:
    """Validate that ``value`` is strictly positive and finite."""
    value = float(value)
    if not (value > 0.0) or not np.isfinite(value):
        raise DistributionError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_non_negative(value: float, name: str = "value") -> float:
    """Validate that ``value`` is non-negative and finite."""
    value = float(value)
    if value < 0.0 or not np.isfinite(value):
        raise DistributionError(f"{name} must be non-negative and finite, got {value!r}")
    return value


def check_rate(value: float, name: str = "rate") -> float:
    """Validate a transition/failure/repair rate (strictly positive)."""
    return check_positive(value, name)


def check_time(value: float, name: str = "t") -> float:
    """Validate a single mission time (non-negative, finite)."""
    return check_non_negative(value, name)


def check_times(values: Iterable[float], name: str = "t") -> np.ndarray:
    """Validate an iterable of mission times, returning a float array."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if arr.ndim != 1:
        raise ModelDefinitionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and (np.any(arr < 0) or not np.all(np.isfinite(arr))):
        raise ModelDefinitionError(f"all entries of {name} must be non-negative and finite")
    return arr


def as_time_array(t) -> "tuple[np.ndarray, bool]":
    """Coerce a scalar-or-sequence time argument to an array.

    Returns the array and a flag that is True when the input was scalar,
    so callers can unwrap the result symmetrically.
    """
    if np.isscalar(t):
        return np.array([check_time(float(t))]), True
    return check_times(t), False


def check_unique_names(names: Sequence[str], what: str = "component") -> None:
    """Raise if ``names`` contains duplicates."""
    seen = set()
    for name in names:
        if name in seen:
            raise ModelDefinitionError(f"duplicate {what} name: {name!r}")
        seen.add(name)


def initial_vector(initial, n: int, index_of: Callable[[Hashable], int]) -> np.ndarray:
    """Initial probability vector from a state label or a distribution.

    ``initial`` is either one state label (all mass there) or a
    ``{label: probability}`` mapping whose probabilities sum to 1;
    ``index_of`` maps a label to its index in the ``n``-state chain.
    """
    vec = np.zeros(n)
    if isinstance(initial, Mapping):
        total = 0.0
        for state, prob in initial.items():
            vec[index_of(state)] = float(prob)
            total += float(prob)
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ModelDefinitionError(f"initial probabilities sum to {total}, expected 1")
    else:
        vec[index_of(initial)] = 1.0
    return vec
