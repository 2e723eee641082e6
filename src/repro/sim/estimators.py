"""Statistical estimators for simulation output.

Simulation answers come with sampling error; these helpers make that
error explicit — point estimate, standard error, confidence interval —
so the E22 cross-validation can assert "analytic result inside the
simulation CI" instead of comparing noisy point values.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from ..exceptions import SolverError

__all__ = ["Estimate", "estimate_mean", "estimate_proportion"]


class Estimate:
    """A point estimate with its sampling uncertainty.

    Attributes
    ----------
    value:
        The point estimate.
    std_error:
        Standard error of the estimate.
    n:
        Number of independent replications behind it.
    """

    def __init__(self, value: float, std_error: float, n: int):
        self.value = float(value)
        self.std_error = float(std_error)
        self.n = int(n)

    def interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation confidence interval."""
        if not 0.0 < level < 1.0:
            raise SolverError(f"level must be in (0, 1), got {level}")
        from scipy import stats

        half = stats.norm.ppf(0.5 + level / 2.0) * self.std_error
        return self.value - half, self.value + half

    def contains(self, truth: float, level: float = 0.95) -> bool:
        """True when ``truth`` lies inside the CI at ``level``."""
        low, high = self.interval(level)
        return low <= truth <= high

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        low, high = self.interval()
        return f"Estimate({self.value:.6g} ± [{low:.6g}, {high:.6g}], n={self.n})"


def estimate_mean(samples: Sequence[float]) -> Estimate:
    """Mean estimate from i.i.d. replications."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise SolverError("need at least two replications")
    return Estimate(float(arr.mean()), float(arr.std(ddof=1)) / math.sqrt(arr.size), arr.size)


def estimate_proportion(successes: int, n: int) -> Estimate:
    """Bernoulli proportion estimate (Wald standard error)."""
    if n < 1:
        raise SolverError("need at least one trial")
    p = successes / n
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
    return Estimate(p, se, n)
