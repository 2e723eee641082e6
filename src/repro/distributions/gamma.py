"""Gamma and Erlang distributions.

The Erlang (integer-shape gamma) is the sum of ``k`` i.i.d. exponential
stages and therefore has an exact phase-type (CTMC) representation — it is
the bridge between non-exponential lifetimes and Markov models whenever
the coefficient of variation is below one.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .._validation import check_positive
from ..exceptions import DistributionError
from .base import LifetimeDistribution

__all__ = ["Gamma", "Erlang"]


class Gamma(LifetimeDistribution):
    """Gamma distribution with ``shape`` α and ``rate`` β (mean α/β).

    Examples
    --------
    >>> g = Gamma(shape=2.0, rate=4.0)
    >>> round(g.mean(), 6)
    0.5
    """

    def __init__(self, shape: float, rate: float):
        self.shape = check_positive(shape, "shape")
        self.rate = check_positive(rate, "rate")

    def _frozen(self):
        from scipy import stats

        return stats.gamma(a=self.shape, scale=1.0 / self.rate)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= 0.0, self._frozen().pdf(np.where(t >= 0.0, t, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= 0.0, self._frozen().cdf(np.where(t >= 0.0, t, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.shape / self.rate

    def variance(self) -> float:
        return self.shape / (self.rate * self.rate)

    def moment(self, k: int) -> float:
        if k < 0:
            return super().moment(k)
        # E[T^k] = Γ(α + k) / (Γ(α) β^k)
        return math.exp(math.lgamma(self.shape + k) - math.lgamma(self.shape)) / self.rate**k

    def ppf(self, q):
        scalar = np.isscalar(q)
        out = self._frozen().ppf(q)
        return float(out) if scalar else np.asarray(out)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.gamma(shape=self.shape, scale=1.0 / self.rate, size=size)


class Erlang(Gamma):
    """Erlang distribution: sum of ``stages`` exponential phases of rate ``rate``.

    ``Erlang(k, λ)`` has mean ``k/λ`` and squared CV ``1/k`` — the smallest
    squared CV achievable with ``k`` phases, which is why moment-matching
    fits with CV < 1 use Erlang stages.

    Examples
    --------
    >>> e = Erlang(stages=4, rate=2.0)
    >>> round(e.cv() ** 2, 6)
    0.25
    """

    def __init__(self, stages: int, rate: float):
        if int(stages) != stages or stages < 1:
            raise DistributionError(f"stages must be a positive integer, got {stages!r}")
        super().__init__(shape=float(stages), rate=rate)
        self.stages = int(stages)

    @classmethod
    def from_mean(cls, mean: float, stages: int) -> "Erlang":
        """Build an Erlang with the given mean and number of stages."""
        mean = check_positive(mean, "mean")
        return cls(stages=stages, rate=stages / mean)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if size is None:
            return float(np.sum(rng.exponential(scale=1.0 / self.rate, size=self.stages)))
        return np.sum(rng.exponential(scale=1.0 / self.rate, size=(size, self.stages)), axis=1)
