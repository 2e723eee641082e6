"""Fitting software reliability growth models to failure data.

Maximum-likelihood estimation of the Goel–Okumoto model from exact
failure times, plus the Laplace trend test that should precede any SRGM
fit ("is reliability actually growing?").
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ..exceptions import DistributionError
from .models import GoelOkumoto

__all__ = ["GoelOkumotoFit", "fit_goel_okumoto", "laplace_trend"]


class GoelOkumotoFit(NamedTuple):
    """MLE result for the Goel–Okumoto model."""

    a: float
    b: float
    n_failures: int
    observation_time: float
    log_likelihood: float

    def model(self) -> GoelOkumoto:
        """The fitted model object."""
        return GoelOkumoto(a=self.a, b=self.b)


def fit_goel_okumoto(
    failure_times: Sequence[float], observation_time: float
) -> GoelOkumotoFit:
    """MLE of Goel–Okumoto parameters from exact failure times.

    Solves the standard coupled equations for failure times
    ``t_1 <= ... <= t_n`` observed on ``(0, T]``::

        a = n / (1 - e^{-bT})
        n/b = Σ t_i + n T e^{-bT} / (1 - e^{-bT})

    Parameters
    ----------
    failure_times:
        Cumulative failure detection times (all in ``(0, T]``).
    observation_time:
        End of the observation window ``T``.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(3)
    >>> truth = GoelOkumoto(a=200.0, b=0.02)
    >>> times = truth.sample_failure_times(200.0, rng)
    >>> fit = fit_goel_okumoto(times, 200.0)
    >>> 100.0 < fit.a < 400.0
    True
    """
    times = np.sort(np.asarray(list(failure_times), dtype=float))
    T = float(observation_time)
    if times.size < 3:
        raise DistributionError("need at least three failure times")
    if T <= 0 or np.any(times <= 0) or np.any(times > T + 1e-9):
        raise DistributionError("failure times must lie in (0, observation_time]")
    n = times.size
    sum_t = float(times.sum())

    def equation(b: float) -> float:
        ebt = math.exp(-b * T)
        return n / b - sum_t - n * T * ebt / (1.0 - ebt)

    # As b -> 0+, equation -> n T/2 - sum_t (positive iff failures skew
    # early); as b -> inf, equation -> -sum_t < 0.  If failures show no
    # early skew the MLE does not exist (no reliability growth).
    lo, hi = 1e-9, 1.0
    if equation(lo) <= 0:
        raise DistributionError(
            "no reliability growth in the data (mean failure time >= T/2); "
            "Goel-Okumoto MLE does not exist"
        )
    while equation(hi) > 0 and hi < 1e6:
        hi *= 2.0
    from scipy import optimize

    b = float(optimize.brentq(equation, lo, hi, xtol=1e-14))
    a = n / (1.0 - math.exp(-b * T))
    log_lik = (
        n * math.log(a * b) - b * sum_t - a * (1.0 - math.exp(-b * T))
    )
    return GoelOkumotoFit(
        a=a, b=b, n_failures=n, observation_time=T, log_likelihood=log_lik
    )


class LaplaceTrend(NamedTuple):
    """Laplace trend-test result."""

    #: standardized statistic; large negative = reliability growth
    statistic: float
    #: one-sided p-value for the growth hypothesis (small = growth)
    p_value_growth: float


def laplace_trend(failure_times: Sequence[float], observation_time: float) -> LaplaceTrend:
    """Laplace factor for trend in an observed point process.

    ``u = (mean(t_i) - T/2) / (T sqrt(1/(12 n)))``; under a homogeneous
    Poisson process ``u ~ N(0,1)``.  ``u << 0`` indicates inter-failure
    times growing — reliability growth; ``u >> 0`` indicates decay.

    Examples
    --------
    >>> trend = laplace_trend([1.0, 2.0, 4.0, 8.0], 100.0)
    >>> trend.statistic < -2.0     # strong growth signal
    True
    """
    times = np.asarray(list(failure_times), dtype=float)
    T = float(observation_time)
    if times.size < 2:
        raise DistributionError("need at least two failure times")
    if T <= 0 or np.any(times < 0) or np.any(times > T + 1e-9):
        raise DistributionError("failure times must lie in [0, observation_time]")
    n = times.size
    u = (float(times.mean()) - T / 2.0) / (T * math.sqrt(1.0 / (12.0 * n)))
    from scipy import stats

    return LaplaceTrend(statistic=u, p_value_growth=float(stats.norm.cdf(u)))
