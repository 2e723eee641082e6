"""Diagnostic records and the :class:`AnalysisReport` container.

A *diagnostic* is one finding of the static model lint: a stable code
(``M001``), a severity, a location path inside the model, a human
message, and a fix hint.  An :class:`AnalysisReport` collects the
diagnostics of one :func:`repro.analyze.analyze` pass and implements the
library-wide :class:`~repro.obs.Observation` protocol (``to_dict`` /
``summary``), so reports attach to trace spans and print like every
other instrumentation object.

Codes are grouped by model family:

* ``Mxxx`` — Markov chains (CTMC / DTMC generators)
* ``Pxxx`` — Petri nets / stochastic reward nets
* ``Sxxx`` — structure models (RBDs, fault trees, reliability graphs)
* ``Hxxx`` — hierarchical / fixed-point compositions
* ``Cxxx`` — compiled models (symbolic rate terms)
* ``Uxxx`` — engine/evaluator-level pre-flight checks

``M0xx``-style low numbers are errors (the model cannot be trusted),
``x1xx`` are warnings (legal but suspicious), and the remainder are
informational.  The full table with fix hints lives in
``docs/DIAGNOSTICS.md`` and in :data:`CODES`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..exceptions import ModelDiagnosticError
from ..markov.registry import POLICY

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "CODES",
    "Diagnostic",
    "AnalysisReport",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Severities in decreasing order of importance.
SEVERITIES: Tuple[str, ...] = (ERROR, WARNING, INFO)

#: code -> (severity, one-line meaning, fix hint).  The canonical table;
#: ``docs/DIAGNOSTICS.md`` renders it and the seeded-defect test suite
#: walks it to assert every code is demonstrable.
CODES: Dict[str, Tuple[str, str, str]] = {
    # ---- Markov (generators, CTMC/DTMC) --------------------------------
    "M001": (
        ERROR,
        "generator row does not sum to zero (non-conservative)",
        "fix the diagonal of the named row: q[i,i] must equal -sum of the off-diagonal rates",
    ),
    "M002": (
        ERROR,
        "negative off-diagonal transition rate",
        "transition rates must be non-negative; check the sign of the named rate",
    ),
    "M003": (
        ERROR,
        "non-finite (NaN/Inf) generator entry",
        "a rate expression produced NaN or Inf; check for 0/0 or overflow in the rate parameters",
    ),
    "M004": (
        ERROR,
        "generator is not square / chain has no states",
        "build the chain before solving; a generator must be a square matrix with >= 1 state",
    ),
    "M101": (
        WARNING,
        "absorbing state present; steady-state mass concentrates there",
        "for availability models add a repair transition out of the state; for reliability/MTTA"
        " models this is intentional — use transient or absorption analysis, not steady state",
    ),
    "M102": (
        WARNING,
        "chain is not irreducible (multiple strongly connected components)",
        "the stationary vector is not unique; solve the recurrent class(es) separately or add"
        " the missing transitions",
    ),
    "M103": (
        WARNING,
        f"stiffness ratio max_rate/min_rate exceeds {POLICY.gth_first_stiffness:.1g}",
        "prefer the GTH solver (method='gth' or 'auto'); naive elimination and ODE integration"
        " lose precision at this spread",
    ),
    "M104": (
        INFO,
        "transient-only strongly connected component (no return path)",
        "states in this component carry zero stationary probability; drop them for steady-state"
        " queries to shrink the model",
    ),
    "M110": (
        ERROR,
        "DTMC row is not a probability distribution",
        "each transition-matrix row must be non-negative and sum to 1; renormalize the named row",
    ),
    # ---- Petri nets / SRNs ---------------------------------------------
    "P101": (
        WARNING,
        "place may be unbounded (heuristic; no structural proof either way)",
        "no P-invariant covers the place and no pumping certificate exists — the structural"
        " pass cannot decide; add an inhibitor arc or a complementary place to make"
        " boundedness provable (P-invariant analysis then silences this warning)",
    ),
    "P102": (
        WARNING,
        "possibly dead transition (heuristic; structural pass unavailable)",
        "the transition consumes from a place that never receives tokens; wire the missing"
        " output arc or drop the transition — when the structural pass runs, proven cases"
        " are reported as P108 instead",
    ),
    "P103": (
        WARNING,
        "possible vanishing loop among immediate transitions",
        "immediate transitions form a token cycle that timed transitions never interrupt;"
        " add a priority/guard or make one transition timed to avoid a vanishing livelock",
    ),
    "P104": (
        WARNING,
        "immediate transition with zero weight",
        "a zero weight can make the vanishing-marking resolution degenerate; give every"
        " competing immediate transition a positive weight",
    ),
    "P105": (
        INFO,
        "isolated place (no arcs touch it)",
        "the place never changes marking and only inflates state descriptions; remove it or"
        " connect it",
    ),
    "P106": (
        WARNING,
        "place is structurally unbounded (proven by a pumping certificate)",
        "the message lists a repeatable guard-free transition multiset that strictly pumps"
        " tokens into the place — reachability cannot terminate; add an inhibitor arc or a"
        " complementary place to close the conservation law",
    ),
    "P107": (
        WARNING,
        "transition breaks a conservation law the rest of the net maintains",
        "without the named transition the other transitions conserve a weighted token sum;"
        " check the transition's arc multiplicities — a missing or doubled arc is the usual"
        " cause of the leak",
    ),
    "P108": (
        WARNING,
        "provably dead transition (structural certificate)",
        "the proof is in the message (initially-empty siphon, contradictory inhibitor arc, or"
        " an input demand above the place's proven bound); wire the missing arc or drop the"
        " transition",
    ),
    "P109": (
        WARNING,
        "predicted state-space bound exceeds the max_markings budget",
        "P-invariant analysis bounds the reachable markings above max_markings, so the sparse"
        " pre-flight will refuse to build; raise max_markings, shrink the net, or pass"
        " preflight=False to attempt the build anyway",
    ),
    # ---- structure models (RBD / fault tree / relgraph) ----------------
    "S001": (
        ERROR,
        "component probability outside [0, 1]",
        "fixed component/event probabilities must be in [0, 1]; check the named component",
    ),
    "S002": (
        ERROR,
        "k-of-n with k out of range",
        "a k-of-n block/gate needs 1 <= k <= n; fix k or the child list",
    ),
    "S003": (
        WARNING,
        "gate or composite block with a single input",
        "a 1-input AND/OR/series/parallel is an identity; inline the child or add the missing"
        " inputs",
    ),
    "S004": (
        INFO,
        "repeated components/basic events (BDD evaluation engaged)",
        "repeated events make compositional products invalid; the exact BDD path is used —"
        " variable order follows first occurrence, so group repeats for smaller BDDs",
    ),
    "S005": (
        WARNING,
        "reliability-graph edge cannot lie on any source-target path",
        "the edge (or its component) never affects connectivity; check the arc direction or"
        " remove it",
    ),
    "S006": (
        INFO,
        "basic event has no fixed probability",
        "quantification will need an explicit q= mapping or per-component distributions",
    ),
    # ---- hierarchy / fixed point ---------------------------------------
    "H001": (
        ERROR,
        "import references an unknown submodel or export",
        "declare the exporting submodel first or fix the (submodel, export) spelling in"
        " imports=",
    ),
    "H002": (
        INFO,
        "cyclic import graph (fixed-point iteration will run)",
        "convergence is only guaranteed for contraction maps; seed initial_guesses and"
        " consider damping if the iteration oscillates",
    ),
    # ---- compiled models -----------------------------------------------
    "C001": (
        ERROR,
        "symbolic rate term references an unsupplied parameter",
        "add the named parameter to the sweep assignment or bake it in as a Const term",
    ),
    "C002": (
        ERROR,
        "symbolic rate term evaluates to an invalid rate",
        "the term produced a non-positive or non-finite rate for the supplied values; check"
        " the parameter ranges",
    ),
    # ---- engine pre-flight ---------------------------------------------
    "U001": (
        ERROR,
        "batch assignment uses a parameter the evaluator does not accept",
        "the compiled evaluator advertises its parameter names; fix the assignment key or"
        " sweep the uncompiled function",
    ),
}


def _known_severity(code: str, severity: Optional[str]) -> str:
    if severity is not None:
        return severity
    try:
        return CODES[code][0]
    except KeyError:
        raise ValueError(f"unknown diagnostic code {code!r} and no explicit severity") from None


def _known_hint(code: str, hint: Optional[str]) -> str:
    if hint is not None:
        return hint
    entry = CODES.get(code)
    return entry[2] if entry is not None else ""


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a model lint pass.

    Attributes
    ----------
    code:
        Stable identifier (``"M001"``); see :data:`CODES`.
    severity:
        ``"error"`` / ``"warning"`` / ``"info"``.  Defaults to the
        registered severity of ``code``.
    location:
        Path inside the model (``"row 3"``, ``"place 'queue'"``,
        ``"gate AndGate[2]"``); empty when the finding is model-global.
    message:
        Human-readable description of this specific finding.
    hint:
        How to fix it.  Defaults to the registered hint of ``code``.
    """

    code: str
    message: str
    location: str = ""
    severity: str = field(default="")
    hint: str = field(default="")

    def __post_init__(self) -> None:
        object.__setattr__(self, "severity", _known_severity(self.code, self.severity or None))
        object.__setattr__(self, "hint", _known_hint(self.code, self.hint or None))
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}; use one of {SEVERITIES}")

    @property
    def is_error(self) -> bool:
        """True for error-severity findings."""
        return self.severity == ERROR

    def render(self) -> str:
        """One-line ``CODE severity [location] message`` form."""
        where = f" [{self.location}]" if self.location else ""
        return f"{self.code} {self.severity}{where}: {self.message}"

    def __str__(self) -> str:
        return self.render()


class AnalysisReport:
    """All diagnostics of one :func:`repro.analyze.analyze` pass.

    Implements the :class:`~repro.obs.Observation` protocol; iterable
    and indexable like a list of :class:`Diagnostic`.

    Attributes
    ----------
    model_type:
        Class name of the analyzed model.
    diagnostics:
        Findings in discovery order.
    passes:
        Names of the analyzer passes that ran (one per matching
        registered analyzer).
    """

    def __init__(
        self,
        model_type: str,
        diagnostics: Optional[Iterable[Diagnostic]] = None,
        passes: Optional[Iterable[str]] = None,
    ):
        self.model_type = model_type
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])
        self.passes: List[str] = list(passes or [])

    # ----------------------------------------------------------- filtering
    @property
    def errors(self) -> List[Diagnostic]:
        """Error-severity findings."""
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        """Warning-severity findings."""
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        """Info-severity findings."""
        return [d for d in self.diagnostics if d.severity == INFO]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was found."""
        return not self.errors

    @property
    def codes(self) -> List[str]:
        """Distinct codes found, in first-occurrence order."""
        return list(dict.fromkeys(d.code for d in self.diagnostics))

    def filter(
        self, severity: Optional[str] = None, code: Optional[str] = None
    ) -> List[Diagnostic]:
        """Findings matching a severity and/or code."""
        out = self.diagnostics
        if severity is not None:
            out = [d for d in out if d.severity == severity]
        if code is not None:
            out = [d for d in out if d.code == code]
        return list(out)

    # --------------------------------------------------------- aggregation
    def extend(self, diagnostics: Iterable[Diagnostic]) -> "AnalysisReport":
        """Append findings (used by multi-pass analysis); returns self."""
        self.diagnostics.extend(diagnostics)
        return self

    def raise_if_errors(self) -> "AnalysisReport":
        """Raise :class:`~repro.exceptions.ModelDiagnosticError` on errors.

        The strict-mode contract: the exception message lists every
        error finding, and the full report travels on the exception's
        ``report`` attribute.  Returns self when clean.
        """
        errors = self.errors
        if errors:
            listing = "; ".join(d.render() for d in errors)
            raise ModelDiagnosticError(
                f"model diagnostics found {len(errors)} error(s) in "
                f"{self.model_type}: {listing}",
                report=self,
            )
        return self

    # -------------------------------------------------------- observation
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe nested dict (the :class:`~repro.obs.Observation` form)."""
        return {
            "model_type": self.model_type,
            "ok": self.ok,
            "passes": list(self.passes),
            "n_errors": len(self.errors),
            "n_warnings": len(self.warnings),
            "n_infos": len(self.infos),
            "diagnostics": [asdict(d) for d in self.diagnostics],
        }

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline numbers (for table printing)."""
        return {
            "n_diagnostics": float(len(self.diagnostics)),
            "n_errors": float(len(self.errors)),
            "n_warnings": float(len(self.warnings)),
            "n_infos": float(len(self.infos)),
            "n_passes": float(len(self.passes)),
        }

    def render(self) -> str:
        """Multi-line human listing (the CLI output form)."""
        lines = [
            f"{self.model_type}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} info(s)"
        ]
        lines.extend(f"  {d.render()}" for d in self.diagnostics)
        return "\n".join(lines)

    # ------------------------------------------------------------ dunders
    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __getitem__(self, index):
        return self.diagnostics[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnalysisReport({self.model_type!r}, {len(self.errors)}E/"
            f"{len(self.warnings)}W/{len(self.infos)}I)"
        )
