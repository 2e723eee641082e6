"""Estimating availability from operational logs.

Given alternating up/down session durations from monitoring, estimate
steady-state availability and its confidence interval.  The classical
result for the ratio estimator ``Â = U / (U + D)`` uses the delta method
on the two session means — what an SRE team needs to turn an uptime log
into a defensible availability claim.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from ..exceptions import DistributionError

__all__ = ["AvailabilityEstimate", "estimate_availability"]


class AvailabilityEstimate(NamedTuple):
    """Availability point estimate with the inputs it came from."""

    availability: float
    mean_uptime: float
    mean_downtime: float
    n_cycles: int
    #: delta-method standard error of the availability estimate
    std_error: float

    def confidence_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation CI, clipped to [0, 1]."""
        if not 0.0 < level < 1.0:
            raise DistributionError(f"level must be in (0, 1), got {level}")
        from scipy import stats

        z = stats.norm.ppf(0.5 + level / 2.0)
        return (
            max(0.0, self.availability - z * self.std_error),
            min(1.0, self.availability + z * self.std_error),
        )

    @property
    def downtime_minutes_per_year(self) -> float:
        """Annualized downtime implied by the point estimate."""
        return (1.0 - self.availability) * 525_600.0


def estimate_availability(
    uptimes: Sequence[float], downtimes: Sequence[float]
) -> AvailabilityEstimate:
    """Estimate steady-state availability from paired up/down sessions.

    Parameters
    ----------
    uptimes, downtimes:
        Observed session durations.  At least two of each; the estimator
        pairs them cycle-wise (truncating to the shorter list).

    Examples
    --------
    >>> est = estimate_availability([99.0, 101.0, 100.0], [1.0, 1.0, 1.0])
    >>> round(est.availability, 4)
    0.9901
    """
    ups = np.asarray(list(uptimes), dtype=float)
    downs = np.asarray(list(downtimes), dtype=float)
    n = min(ups.size, downs.size)
    if n < 2:
        raise DistributionError("need at least two complete up/down cycles")
    if np.any(ups[:n] < 0) or np.any(downs[:n] < 0):
        raise DistributionError("durations must be non-negative")
    ups, downs = ups[:n], downs[:n]

    mu_u = float(ups.mean())
    mu_d = float(downs.mean())
    total = mu_u + mu_d
    if total <= 0:
        raise DistributionError("all sessions have zero length")
    a_hat = mu_u / total

    # Delta method on A = U/(U+D):
    #   dA/dU = D/(U+D)^2,  dA/dD = -U/(U+D)^2
    var_u = float(ups.var(ddof=1)) / n
    var_d = float(downs.var(ddof=1)) / n
    cov = float(np.cov(ups, downs, ddof=1)[0, 1]) / n
    du = mu_d / total**2
    dd = -mu_u / total**2
    var_a = du * du * var_u + dd * dd * var_d + 2.0 * du * dd * cov
    return AvailabilityEstimate(
        availability=a_hat,
        mean_uptime=mu_u,
        mean_downtime=mu_d,
        n_cycles=n,
        std_error=math.sqrt(max(var_a, 0.0)),
    )
