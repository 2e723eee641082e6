"""Estimating exponential failure/repair rates from field data.

Dependability models are only as good as their input rates; this module
implements the standard inference recipes for the exponential case:

* MLE from complete and right-censored (Type-I / Type-II) samples —
  ``λ̂ = r / T`` with ``r`` observed failures and ``T`` total time on
  test;
* exact chi-square confidence intervals for the rate (and hence MTTF);
* zero-failure (success-run) upper bounds — the "no failures observed,
  what can we claim?" question certification asks.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DistributionError

__all__ = [
    "RateEstimate",
    "estimate_rate",
    "rate_confidence_interval",
    "zero_failure_rate_upper_bound",
]


class RateEstimate(NamedTuple):
    """MLE of an exponential rate from (possibly censored) data."""

    #: point estimate λ̂ = failures / total time on test
    rate: float
    #: number of observed failures
    failures: int
    #: accumulated time on test (failures + censored units)
    total_time: float

    @property
    def mttf(self) -> float:
        """Point estimate of the mean time to failure, ``1 / λ̂``."""
        if self.rate <= 0:
            return math.inf
        return 1.0 / self.rate

    def confidence_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Exact chi-square CI for the rate (time-censored convention)."""
        return rate_confidence_interval(
            self.failures, self.total_time, level=level
        )


def estimate_rate(
    failure_times: Sequence[float],
    censoring_times: Optional[Sequence[float]] = None,
) -> RateEstimate:
    """MLE of the exponential rate from failures plus right-censored units.

    Parameters
    ----------
    failure_times:
        Observed times to failure.
    censoring_times:
        Running times of units that had not failed when observation
        stopped (right censoring).  Optional.

    Examples
    --------
    >>> est = estimate_rate([100.0, 300.0], censoring_times=[600.0])
    >>> round(est.rate, 6)
    0.002
    """
    failures = np.asarray(list(failure_times), dtype=float)
    censored = np.asarray([] if censoring_times is None else list(censoring_times), dtype=float)
    if failures.size == 0 and censored.size == 0:
        raise DistributionError("no data supplied")
    if np.any(failures < 0) or np.any(censored < 0):
        raise DistributionError("times must be non-negative")
    total_time = float(failures.sum() + censored.sum())
    if total_time <= 0:
        raise DistributionError("total time on test must be positive")
    r = int(failures.size)
    return RateEstimate(rate=r / total_time, failures=r, total_time=total_time)


def rate_confidence_interval(
    failures: int, total_time: float, level: float = 0.95
) -> Tuple[float, float]:
    """Exact two-sided chi-square CI for an exponential rate.

    Uses the time-censored (Type-I) convention::

        λ_lo = χ²(α/2; 2r) / (2T)        λ_hi = χ²(1-α/2; 2r+2) / (2T)

    With zero failures the lower limit is 0.

    Examples
    --------
    >>> lo, hi = rate_confidence_interval(2, 1000.0)
    >>> lo < 2 / 1000.0 < hi
    True
    """
    if failures < 0:
        raise DistributionError(f"failures must be >= 0, got {failures}")
    if total_time <= 0:
        raise DistributionError(f"total_time must be positive, got {total_time}")
    if not 0.0 < level < 1.0:
        raise DistributionError(f"level must be in (0, 1), got {level}")
    from scipy import stats

    alpha = 1.0 - level
    if failures == 0:
        lower = 0.0
    else:
        lower = stats.chi2.ppf(alpha / 2.0, 2 * failures) / (2.0 * total_time)
    upper = stats.chi2.ppf(1.0 - alpha / 2.0, 2 * failures + 2) / (2.0 * total_time)
    return float(lower), float(upper)


def zero_failure_rate_upper_bound(total_time: float, confidence: float = 0.95) -> float:
    """Upper bound on the rate after ``total_time`` hours with *no* failures.

    ``λ_hi = -ln(1 - confidence) / T`` — the classical success-run bound.

    Examples
    --------
    >>> round(zero_failure_rate_upper_bound(10_000.0, 0.95), 8)
    0.00029957
    """
    if total_time <= 0:
        raise DistributionError(f"total_time must be positive, got {total_time}")
    if not 0.0 < confidence < 1.0:
        raise DistributionError(f"confidence must be in (0, 1), got {confidence}")
    return -math.log(1.0 - confidence) / total_time
