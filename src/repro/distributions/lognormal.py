"""Lognormal distribution — the classic model for repair times.

Field data on manual repair durations is strongly right-skewed; the
lognormal is the standard fit.  Like the Weibull it is non-memoryless and
motivates the tutorial's semi-Markov / phase-type machinery.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .._validation import check_positive
from .base import LifetimeDistribution

__all__ = ["Lognormal"]


class Lognormal(LifetimeDistribution):
    """Lognormal distribution: ``ln T ~ Normal(mu, sigma**2)``.

    Examples
    --------
    >>> d = Lognormal(mu=0.0, sigma=1.0)
    >>> round(d.median(), 6)
    1.0
    """

    def __init__(self, mu: float, sigma: float):
        self.mu = float(mu)
        self.sigma = check_positive(sigma, "sigma")

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "Lognormal":
        """Build from mean and coefficient of variation."""
        mean = check_positive(mean, "mean")
        cv = check_positive(cv, "cv")
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return cls(mu=mu, sigma=math.sqrt(sigma2))

    def _frozen(self):
        from scipy import stats

        return stats.lognorm(s=self.sigma, scale=math.exp(self.mu))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > 0.0, self._frozen().pdf(np.where(t > 0.0, t, 1.0)), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > 0.0, self._frozen().cdf(np.where(t > 0.0, t, 1.0)), 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def variance(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def moment(self, k: int) -> float:
        if k < 0:
            return super().moment(k)
        return math.exp(k * self.mu + k * k * self.sigma**2 / 2.0)

    def median(self) -> float:
        return math.exp(self.mu)

    def ppf(self, q):
        scalar = np.isscalar(q)
        out = self._frozen().ppf(q)
        return float(out) if scalar else np.asarray(out)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.lognormal(mean=self.mu, sigma=self.sigma, size=size)
