"""Nonparametric reliability estimation: Kaplan–Meier.

When no parametric family is trusted, the product-limit estimator gives
the empirical survival curve directly from (possibly right-censored)
field data; Greenwood's formula supplies pointwise variances.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DistributionError

__all__ = ["KaplanMeier", "kaplan_meier"]


class KaplanMeier(NamedTuple):
    """Product-limit survival estimate.

    Attributes
    ----------
    times:
        Distinct event (failure) times, increasing.
    survival:
        Estimated S(t) immediately after each event time.
    variance:
        Greenwood variance of the estimate at each event time.
    """

    times: np.ndarray
    survival: np.ndarray
    variance: np.ndarray

    def survival_at(self, t) -> np.ndarray:
        """Step-function evaluation of the estimated survival curve."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right") - 1
        out = np.where(idx < 0, 1.0, self.survival[np.clip(idx, 0, None)])
        return out if out.ndim else float(out)

    def confidence_band(self, level: float = 0.95) -> Tuple[np.ndarray, np.ndarray]:
        """Pointwise normal-approximation confidence band."""
        if not 0.0 < level < 1.0:
            raise DistributionError(f"level must be in (0, 1), got {level}")
        from scipy import stats

        z = stats.norm.ppf(0.5 + level / 2.0)
        half = z * np.sqrt(self.variance)
        return np.clip(self.survival - half, 0.0, 1.0), np.clip(
            self.survival + half, 0.0, 1.0
        )

    def median_lifetime(self) -> float:
        """Smallest event time with S(t) <= 0.5 (inf if never reached)."""
        below = np.nonzero(self.survival <= 0.5)[0]
        if below.size == 0:
            return float("inf")
        return float(self.times[below[0]])


def kaplan_meier(
    failure_times: Sequence[float],
    censoring_times: Optional[Sequence[float]] = None,
) -> KaplanMeier:
    """Kaplan–Meier product-limit estimator.

    Parameters
    ----------
    failure_times:
        Observed failure times.
    censoring_times:
        Right-censoring times (units still alive at loss to follow-up).

    Examples
    --------
    >>> km = kaplan_meier([1.0, 2.0, 3.0], censoring_times=[2.5])
    >>> float(km.survival_at(1.5))
    0.75
    """
    failures = np.asarray(list(failure_times), dtype=float)
    censored = np.asarray([] if censoring_times is None else list(censoring_times), dtype=float)
    if failures.size == 0:
        raise DistributionError("need at least one failure time")
    if np.any(failures < 0) or np.any(censored < 0):
        raise DistributionError("times must be non-negative")

    event_times = np.unique(failures)
    n_total = failures.size + censored.size

    survival = []
    variance_sum = 0.0
    variances = []
    current = 1.0
    for t in event_times:
        at_risk = int((failures >= t).sum() + (censored >= t).sum())
        deaths = int((failures == t).sum())
        if at_risk <= 0:
            break
        current *= 1.0 - deaths / at_risk
        if at_risk > deaths:
            variance_sum += deaths / (at_risk * (at_risk - deaths))
        survival.append(current)
        variances.append(current**2 * variance_sum)
    k = len(survival)
    return KaplanMeier(
        times=event_times[:k],
        survival=np.asarray(survival),
        variance=np.asarray(variances),
    )
