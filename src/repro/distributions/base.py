"""Abstract base class for lifetime (time-to-event) distributions.

Every failure-time and repair-time distribution in the library implements
:class:`LifetimeDistribution`.  The interface is the one reliability
engineering needs: survival function (= component reliability), hazard
rate, raw moments, and random variate generation for the Monte Carlo
simulator.

Subclasses must implement :meth:`pdf`, :meth:`cdf`, :meth:`mean`,
:meth:`variance` and :meth:`sample`; everything else has a generic
implementation in terms of those.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np

from ..exceptions import DistributionError

__all__ = ["LifetimeDistribution"]


class LifetimeDistribution(abc.ABC):
    """A non-negative continuous random variable modelling a lifetime.

    The survival function ``sf(t)`` of a component's time to failure is its
    reliability ``R(t)``; the hazard ``h(t) = pdf(t) / sf(t)`` is its
    instantaneous failure rate.
    """

    # ----------------------------------------------------------------- core
    @abc.abstractmethod
    def pdf(self, t):
        """Probability density function evaluated at ``t`` (scalar or array)."""

    @abc.abstractmethod
    def cdf(self, t):
        """Cumulative distribution function ``P[T <= t]``."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value ``E[T]``."""

    @abc.abstractmethod
    def variance(self) -> float:
        """Variance ``Var[T]``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw random variates using ``rng``."""

    # ------------------------------------------------------------- derived
    def sf(self, t):
        """Survival function ``P[T > t]`` — the reliability ``R(t)``."""
        return 1.0 - np.asarray(self.cdf(t))

    def reliability(self, t):
        """Alias for :meth:`sf`, in reliability-engineering vocabulary."""
        return self.sf(t)

    def hazard(self, t):
        """Instantaneous failure (hazard) rate ``h(t) = f(t) / R(t)``.

        Returns ``inf`` where the survival function is zero.
        """
        t = np.asarray(t, dtype=float)
        surv = np.asarray(self.sf(t), dtype=float)
        dens = np.asarray(self.pdf(t), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(surv > 0.0, dens / np.where(surv > 0.0, surv, 1.0), np.inf)
        return out if out.ndim else float(out)

    def cumulative_hazard(self, t):
        """Cumulative hazard ``H(t) = -ln R(t)``."""
        surv = np.asarray(self.sf(t), dtype=float)
        with np.errstate(divide="ignore"):
            out = -np.log(np.clip(surv, 0.0, 1.0))
        return out if out.ndim else float(out)

    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.variance())

    def cv(self) -> float:
        """Coefficient of variation ``std / mean``.

        The CV drives phase-type fitting: CV == 1 is exponential, CV < 1
        calls for hypoexponential (Erlang) phases, CV > 1 for
        hyperexponential phases.
        """
        mu = self.mean()
        if mu <= 0:
            raise DistributionError("coefficient of variation undefined for zero mean")
        return self.std() / mu

    def squared_cv(self) -> float:
        """Squared coefficient of variation ``Var / mean**2``."""
        mu = self.mean()
        if mu <= 0:
            raise DistributionError("squared CV undefined for zero mean")
        return self.variance() / (mu * mu)

    def moment(self, k: int) -> float:
        """Raw moment ``E[T**k]``.

        The generic implementation integrates ``k * t**(k-1) * R(t)``
        numerically; subclasses override with closed forms where available.
        """
        if k < 0:
            raise DistributionError(f"moment order must be >= 0, got {k}")
        if k == 0:
            return 1.0
        if k == 1:
            return self.mean()
        if k == 2:
            mu = self.mean()
            return self.variance() + mu * mu

        from scipy import integrate

        def integrand(t: float) -> float:
            return k * t ** (k - 1) * float(self.sf(t))

        value, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
        return value

    def ppf(self, q):
        """Quantile function (inverse CDF).

        Generic bracketing/brentq implementation; subclasses override with
        closed forms where available.
        """
        scalar = np.isscalar(q)
        qs = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((qs < 0) | (qs > 1)):
            raise DistributionError("quantile levels must lie in [0, 1]")
        out = np.empty_like(qs)
        for i, level in enumerate(qs):
            out[i] = self._ppf_scalar(float(level))
        return float(out[0]) if scalar else out

    def _ppf_scalar(self, q: float) -> float:
        if q <= 0.0:
            return 0.0
        if q >= 1.0:
            return math.inf
        hi = max(self.mean(), 1e-12)
        while float(self.cdf(hi)) < q:
            hi *= 2.0
            if hi > 1e300:
                return math.inf
        from scipy import optimize

        return float(optimize.brentq(lambda t: float(self.cdf(t)) - q, 0.0, hi, xtol=1e-12))

    def median(self) -> float:
        """Median lifetime."""
        return float(self.ppf(0.5))

    # ---------------------------------------------------------------- misc
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.__dict__.items()))
        return f"{type(self).__name__}({params})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))
