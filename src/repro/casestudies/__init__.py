"""The tutorial's industrial case studies (system S20 in DESIGN.md).

Each module is a self-contained worked example with documented
parameters and a table/series function that the matching benchmark
regenerates:

* :mod:`~repro.casestudies.cisco` — Cisco GSR 12000 router (E18)
* :mod:`~repro.casestudies.bladecenter` — IBM BladeCenter (E19)
* :mod:`~repro.casestudies.sun` — Sun carrier-grade platform (E20)
* :mod:`~repro.casestudies.sip` — IBM SIP/WebSphere composite (E21)
* :mod:`~repro.casestudies.boeing` — Boeing 787-scale bounded FT (E05)
* :mod:`~repro.casestudies.rejuvenation` — software rejuvenation MRGP (E12)
* :mod:`~repro.casestudies.wfs` — workstations & file server (E15)
* :mod:`~repro.casestudies.telecom` — switching-system call-loss DPM
* :mod:`~repro.casestudies.nfvchain` — scalable NFV service chain (E37)

Each module is imported on first access (``from repro.casestudies import
cisco`` or ``repro.casestudies.cisco``), so loading one case study does
not load the others and their solver stacks.
"""

from typing import TYPE_CHECKING

__all__ = [
    "cisco",
    "bladecenter",
    "sun",
    "sip",
    "boeing",
    "rejuvenation",
    "wfs",
    "telecom",
    "nfvchain",
]


def __getattr__(name: str):
    """Import a case-study module on first access (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return importlib.import_module(f"{__name__}.{name}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from . import bladecenter, boeing, cisco, nfvchain, rejuvenation, sip, sun, telecom, wfs
