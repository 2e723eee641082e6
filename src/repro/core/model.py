"""The unifying model protocol.

The tutorial's central engineering lesson is that one analysis interface
should span *all* model types — non-state-space (RBD, fault tree,
reliability graph), state-space (CTMC, SMP, MRGP, SRN) and hierarchical
compositions of them.  :class:`DependabilityModel` is that interface:
anything that can report reliability/availability measures implements it,
which is what lets :mod:`repro.core.hierarchy` glue heterogeneous
submodels together.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np

from ..exceptions import SolverError

__all__ = ["DependabilityModel", "mttf_from_reliability"]

#: One year expressed in hours; used for downtime-per-year style measures.
HOURS_PER_YEAR = 8760.0
MINUTES_PER_YEAR = HOURS_PER_YEAR * 60.0


def mttf_from_reliability(reliability, upper: Optional[float] = None) -> float:
    """Compute ``MTTF = ∫_0^∞ R(t) dt`` by adaptive quadrature.

    Parameters
    ----------
    reliability:
        Callable mapping a scalar time to the system reliability.
    upper:
        Optional finite truncation point.  When omitted the improper
        integral is evaluated directly.
    """
    from scipy import integrate

    if upper is None:
        value, _ = integrate.quad(lambda t: float(reliability(t)), 0.0, np.inf, limit=200)
    else:
        value, _ = integrate.quad(lambda t: float(reliability(t)), 0.0, float(upper), limit=200)
    if not math.isfinite(value) or value < 0:
        raise SolverError(f"MTTF integration produced an invalid value: {value!r}")
    return value


class DependabilityModel(abc.ABC):
    """Common interface for every reliability/availability model.

    Subclasses implement whichever measures make sense for their model
    class and leave the rest raising :class:`NotImplementedError` (the
    default).  The hierarchy engine introspects capabilities via
    duck-typing: it simply calls the measure it needs.
    """

    # -- reliability (no repair) ------------------------------------------
    def reliability(self, t):
        """System reliability ``R(t)``: probability of no failure in [0, t]."""
        raise NotImplementedError(f"{type(self).__name__} does not define reliability(t)")

    def unreliability(self, t):
        """``F(t) = 1 - R(t)``."""
        return 1.0 - np.asarray(self.reliability(t))

    def mttf(self) -> float:
        """Mean time to (system) failure, ``∫ R(t) dt`` by default."""
        return mttf_from_reliability(lambda t: float(np.asarray(self.reliability(t))))

    # -- availability (with repair) ---------------------------------------
    def availability(self, t):
        """Instantaneous (point) availability ``A(t)``."""
        raise NotImplementedError(f"{type(self).__name__} does not define availability(t)")

    def steady_state_availability(self) -> float:
        """Long-run fraction of time the system is up."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define steady_state_availability()"
        )

    def steady_state_unavailability(self) -> float:
        """``1 - steady_state_availability()``."""
        return 1.0 - self.steady_state_availability()

    def interval_availability(self, t) -> float:
        """Expected fraction of ``[0, t]`` spent up: ``(1/t) ∫_0^t A(u) du``.

        Default implementation integrates :meth:`availability` numerically.
        """
        t = float(t)
        if t <= 0:
            raise SolverError("interval availability requires t > 0")
        from scipy import integrate

        value, _ = integrate.quad(lambda u: float(np.asarray(self.availability(u))), 0.0, t, limit=200)
        return value / t

    # -- derived practitioner measures -------------------------------------
    def downtime_minutes_per_year(self) -> float:
        """Expected annual downtime in minutes — the telecom industry yardstick."""
        return self.steady_state_unavailability() * MINUTES_PER_YEAR

    def nines(self) -> float:
        """Number of nines of availability: ``-log10(1 - A)``."""
        unavail = self.steady_state_unavailability()
        if unavail <= 0.0:
            return math.inf
        return -math.log10(unavail)
