"""Weibull parameter estimation (wear-out analysis).

Implements the standard maximum-likelihood fit for complete and
right-censored samples.  The shape MLE solves the classical profile
equation

    Σ t_i^k ln t_i / Σ t_i^k  -  1/k  =  (1/r) Σ_{failures} ln t_i

(sums over *all* units, right-censored included; the right-hand side
over failures only), solved by bisection/brentq; the scale then follows
in closed form.  A method-of-moments starter is also exposed.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..distributions import Weibull
from ..exceptions import DistributionError

__all__ = ["WeibullEstimate", "fit_weibull_mle", "fit_weibull_moments"]


class WeibullEstimate(NamedTuple):
    """Fitted Weibull parameters."""

    shape: float
    scale: float
    #: log-likelihood at the optimum (censoring included)
    log_likelihood: float

    def distribution(self) -> Weibull:
        """The fitted distribution object."""
        return Weibull(shape=self.shape, scale=self.scale)


def _profile_equation(k: float, times: np.ndarray, failures: np.ndarray) -> float:
    powered = times**k
    lhs = float((powered * np.log(times)).sum() / powered.sum()) - 1.0 / k
    rhs = float(np.log(failures).mean())
    return lhs - rhs


def fit_weibull_mle(
    failure_times: Sequence[float],
    censoring_times: Optional[Sequence[float]] = None,
) -> WeibullEstimate:
    """Maximum-likelihood Weibull fit with optional right censoring.

    Parameters
    ----------
    failure_times:
        Observed failure times (at least 2, all positive).
    censoring_times:
        Right-censoring times of surviving units (optional).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(1)
    >>> data = Weibull(shape=2.0, scale=10.0).sample(rng, 4000)
    >>> est = fit_weibull_mle(data)
    >>> abs(est.shape - 2.0) < 0.1
    True
    """
    failures = np.asarray(list(failure_times), dtype=float)
    censored = np.asarray([] if censoring_times is None else list(censoring_times), dtype=float)
    if failures.size < 2:
        raise DistributionError("need at least two failure times")
    if np.any(failures <= 0) or np.any(censored <= 0):
        raise DistributionError("all times must be strictly positive")
    all_times = np.concatenate([failures, censored]) if censored.size else failures

    # Bracket the profile-equation root.
    lo, hi = 1e-3, 1.0
    while _profile_equation(hi, all_times, failures) < 0 and hi < 1e4:
        hi *= 2.0
    if _profile_equation(lo, all_times, failures) > 0:
        raise DistributionError("Weibull MLE profile equation has no root in range")
    from scipy import optimize

    shape = float(optimize.brentq(
        _profile_equation, lo, hi, args=(all_times, failures), xtol=1e-12
    ))
    scale = float((all_times**shape).sum() / failures.size) ** (1.0 / shape)

    r = failures.size
    log_lik = (
        r * math.log(shape)
        - r * shape * math.log(scale)
        + float(((shape - 1.0) * np.log(failures)).sum())
        - float(((all_times / scale) ** shape).sum())
    )
    return WeibullEstimate(shape=shape, scale=scale, log_likelihood=log_lik)


def fit_weibull_moments(samples: Sequence[float]) -> WeibullEstimate:
    """Method-of-moments Weibull fit (complete samples only).

    Matches the sample CV to the Weibull CV by solving for the shape,
    then matches the mean.  Useful as a starter or a rough-and-ready fit.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size < 2:
        raise DistributionError("need at least two samples")
    if np.any(data <= 0):
        raise DistributionError("all samples must be strictly positive")
    mean = float(data.mean())
    cv = float(data.std(ddof=1)) / mean
    if cv <= 0:
        raise DistributionError("degenerate sample (zero variance)")

    def cv_gap(k: float) -> float:
        g1 = math.gamma(1.0 + 1.0 / k)
        g2 = math.gamma(1.0 + 2.0 / k)
        return math.sqrt(max(g2 - g1 * g1, 0.0)) / g1 - cv

    lo, hi = 0.05, 1.0
    while cv_gap(hi) > 0 and hi < 1e4:
        hi *= 2.0
    from scipy import optimize

    shape = float(optimize.brentq(cv_gap, lo, hi, xtol=1e-10))
    scale = mean / math.gamma(1.0 + 1.0 / shape)
    fitted = Weibull(shape=shape, scale=scale)
    log_lik = float(np.log(fitted.pdf(data)).sum())
    return WeibullEstimate(shape=shape, scale=scale, log_likelihood=log_lik)
