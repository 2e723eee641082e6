"""The serving model registry: named, analyzed, warm evaluators.

A :class:`ModelRegistry` maps model names to :class:`RegisteredModel`
entries.  Registration is the expensive moment by design — the daemon
pays once, at startup, for everything a query should never wait on:

* **compilation** — evaluators the compile subsystem knows
  (:func:`~repro.compile.supports_compilation`) are compiled eagerly,
  so every request hits a warm
  :class:`~repro.compile.CompiledEvaluator` with its structure frozen
  and its steady-state memo shared across requests;
* **diagnostics** — when an analyzable form exists (the compiled
  evaluator, or an explicit ``model=``), :func:`repro.analyze.analyze`
  runs once and the :class:`~repro.analyze.AnalysisReport` is stored on
  the entry; ``diagnostics="strict"`` (the default) refuses to register
  a model with error-severity findings, so a broken model is rejected
  at startup instead of serving wrong numbers;
* **probing** — the evaluator is called once on its defaults, so an
  evaluator that cannot even produce its nominal point fails
  registration, not the first customer request.

:func:`default_registry` preloads the nine tutorial case studies.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..analyze import DIAGNOSTIC_MODES, AnalysisReport, analyze
from ..compile import compile_model, supports_compilation
from ..exceptions import DiagnosticWarning, ModelDefinitionError

__all__ = ["RegisteredModel", "ModelRegistry", "UnknownModelError", "default_registry"]


def _net_of(model):
    """The underlying PetriNet of a net-backed model, else None."""
    candidate = model
    srn = getattr(candidate, "srn", None)  # SRNDependabilityModel
    if srn is not None:
        candidate = srn
    net = getattr(candidate, "net", None)  # StochasticRewardNet
    if net is not None:
        candidate = net
    if hasattr(candidate, "_places") and hasattr(candidate, "_transitions"):
        return candidate
    return None


class UnknownModelError(KeyError):
    """Lookup of a model name the registry does not hold.

    A ``KeyError`` subclass so plain dict-style handling works; the
    serve app maps it to a 404 with the known names in the message.
    """

    def __init__(self, name: str, known: List[str]):
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return f"unknown model {self.name!r}; registered models: {self.known}"


class RegisteredModel:
    """One servable model: a warm evaluator plus its advertised metadata.

    Attributes
    ----------
    name:
        Registry key (URL path segment, so keep it token-like).
    evaluate:
        ``assignment -> float`` — the *warm* form actually served
        (the compiled evaluator when compilation applied).
    description:
        One human line for ``GET /models``.
    parameters:
        Accepted assignment keys, when known (compiled evaluators
        advertise them; opaque callables may pass them explicitly).
    defaults:
        The nominal parameter point (also the registration probe point).
    compiled:
        Whether ``evaluate`` is a :class:`~repro.compile.CompiledEvaluator`.
    size:
        Model-scale metadata (``n_states``, ``n_components``, ...) —
        taken from the compiled evaluator's
        :meth:`~repro.compile.CompiledEvaluator.size` or supplied by the
        registrant for opaque evaluators; ``None`` when unknown.  For
        net-backed models (Petri nets / SRNs, lazy ones in particular)
        registration adds ``predicted_states``: the P-invariant
        state-space bound from
        :func:`repro.analyze.invariants.structural_analysis`, computed
        without building reachability.
    report:
        The registration-time :class:`~repro.analyze.AnalysisReport`
        (``None`` when nothing analyzable was available).
    """

    def __init__(
        self,
        name: str,
        evaluate: Callable[[Mapping[str, float]], float],
        description: str = "",
        parameters: Tuple[str, ...] = (),
        defaults: Optional[Dict[str, float]] = None,
        compiled: bool = False,
        size: Optional[Dict[str, int]] = None,
        report: Optional[AnalysisReport] = None,
    ):
        self.name = name
        self.evaluate = evaluate
        self.description = description
        self.parameters = tuple(parameters)
        self.defaults = dict(defaults or {})
        self.compiled = compiled
        self.size = dict(size) if size is not None else None
        self.report = report

    def describe(self, verbose: bool = False) -> Dict[str, object]:
        """JSON-safe metadata (``GET /models`` row; full with ``verbose``)."""
        out: Dict[str, object] = {
            "name": self.name,
            "description": self.description,
            "compiled": self.compiled,
            "parameters": list(self.parameters),
        }
        if self.size is not None:
            out["size"] = dict(self.size)
        if verbose:
            out["defaults"] = dict(self.defaults)
            out["diagnostics"] = (
                self.report.to_dict() if self.report is not None else None
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "compiled" if self.compiled else "callable"
        return f"RegisteredModel({self.name!r}, {tag})"


class ModelRegistry:
    """Name → :class:`RegisteredModel` map with eager warm-up.

    Not request-hot: registration happens at startup (or through an
    explicit admin action), lookups afterwards are plain dict reads —
    the registry is therefore safe to share across request threads as
    long as registration is not concurrent with serving.
    """

    def __init__(self):
        self._models: "Dict[str, RegisteredModel]" = {}

    def register(
        self,
        name: str,
        evaluator: Callable[[Mapping[str, float]], float],
        description: str = "",
        parameters: Tuple[str, ...] = (),
        defaults: Optional[Dict[str, float]] = None,
        size: Optional[Dict[str, int]] = None,
        model=None,
        diagnostics: str = "strict",
        query: Optional[str] = "steady_state",
        probe: bool = True,
    ) -> RegisteredModel:
        """Warm, analyze and admit one model; returns the entry.

        Parameters
        ----------
        evaluator:
            ``assignment -> float``.  Anything
            :func:`~repro.compile.supports_compilation` accepts is
            compiled eagerly and the compiled form is served.
        model:
            Optional analyzable model object (CTMC, hierarchy, fault
            tree, ...) standing in for an opaque evaluator, so the
            registration lint has something to look at.
        diagnostics:
            ``"strict"`` (default) rejects error-severity findings with
            :class:`~repro.exceptions.ModelDiagnosticError`; ``"warn"``
            emits a :class:`~repro.exceptions.DiagnosticWarning`;
            ``"ignore"`` still analyzes (the report is served) but
            never complains.
        probe:
            Evaluate the ``defaults`` point once before admitting.
        """
        if not name or "/" in name:
            raise ModelDefinitionError(
                f"model name must be a non-empty path segment, got {name!r}"
            )
        if name in self._models:
            raise ModelDefinitionError(f"model {name!r} is already registered")
        if diagnostics not in DIAGNOSTIC_MODES:
            raise ModelDefinitionError(
                f"diagnostics must be one of {DIAGNOSTIC_MODES}, got {diagnostics!r}"
            )

        evaluate = evaluator
        compiled = False
        if supports_compilation(evaluator):
            evaluate = compile_model(evaluator)
            compiled = True
            if not parameters:
                parameters = tuple(evaluate.parameters)
            if size is None:
                size = evaluate.size()

        analyzable = model if model is not None else (evaluate if compiled else None)
        report: Optional[AnalysisReport] = None
        if analyzable is not None:
            report = analyze(analyzable, query=query)
            if diagnostics == "strict":
                report.raise_if_errors()
            elif diagnostics == "warn" and report.diagnostics:
                warnings.warn(
                    f"serve.register({name!r}): "
                    + "; ".join(d.render() for d in report.diagnostics),
                    DiagnosticWarning,
                    stacklevel=2,
                )

        net = _net_of(analyzable)
        if net is not None:
            from ..analyze import structural_analysis

            prediction = structural_analysis(net)
            if prediction.complete and prediction.state_bound is not None:
                size = dict(size) if size is not None else {}
                size.setdefault("predicted_states", prediction.state_bound)

        entry = RegisteredModel(
            name,
            evaluate,
            description=description,
            parameters=parameters,
            defaults=defaults,
            compiled=compiled,
            size=size,
            report=report,
        )
        if probe:
            # Fail registration, not the first request: one evaluation
            # at the nominal point proves the evaluator actually runs.
            float(entry.evaluate(entry.defaults))
        self._models[name] = entry
        return entry

    def get(self, name: str) -> RegisteredModel:
        """The entry for ``name``; :class:`UnknownModelError` otherwise."""
        try:
            return self._models[name]
        except KeyError:
            raise UnknownModelError(name, self.names()) from None

    def subset(self, names) -> "ModelRegistry":
        """A new registry sharing the named (already-warm) entries.

        Entries are reused, not re-registered — no recompilation, no
        re-analysis.  Unknown names raise :class:`UnknownModelError`.
        """
        registry = ModelRegistry()
        for name in names:
            registry._models[name] = self.get(name)
        return registry

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._models)

    def describe(self) -> List[Dict[str, object]]:
        """``GET /models`` payload: one metadata row per model."""
        return [self._models[name].describe() for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self):
        return iter(self.names())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelRegistry({self.names()})"


def default_registry(diagnostics: str = "strict", probe: bool = True) -> ModelRegistry:
    """A registry preloaded with the nine tutorial case studies.

    Five studies advertise a compiled form and serve its warm
    :class:`~repro.compile.CompiledEvaluator` singleton: BladeCenter,
    Cisco and Sun (frozen leaf chains and structure functions), Boeing
    (one BDD per tree structure) and the NFV chain (one frozen CSR
    structure per count signature, refilled per rate point).  The other
    four (WFS, SIP, telecom, rejuvenation) serve their module-level
    ``evaluate_availability`` wrappers.  Entries that are not compiled,
    and the net- or tree-backed compiled ones, register an explicit
    analyzable model; ``size`` is the compiled evaluator's own or an
    honest hand count.  The NFV chain is the scalable entry: callers
    can dial ``n_vnfs``/``replicas`` up to 10^5+ states, within the
    caps its ``resolve_parameters`` documents.
    """
    from ..casestudies import (
        bladecenter,
        boeing,
        cisco,
        nfvchain,
        rejuvenation,
        sip,
        sun,
        telecom,
        wfs,
    )

    registry = ModelRegistry()

    def add(name, evaluator, description, defaults=None, **kwargs):
        registry.register(
            name,
            evaluator,
            description=description,
            defaults=defaults,
            diagnostics=diagnostics,
            probe=probe,
            **kwargs,
        )

    add(
        "bladecenter",
        bladecenter.evaluate_availability,
        "IBM BladeCenter hierarchical availability (E19, compiled)",
        defaults=asdict(bladecenter.BladeCenterParameters()),
    )
    add(
        "cisco",
        cisco.evaluate_availability,
        "Cisco 12000 GSR router availability (E18, compiled)",
        defaults=asdict(cisco.CiscoParameters()),
    )
    add(
        "sun",
        sun.evaluate_availability,
        "Sun Microsystems platform availability (E20, compiled)",
        defaults=asdict(sun.SunParameters()),
    )

    wfs_params = wfs.WFSParameters()
    add(
        "wfs",
        wfs.evaluate_availability,
        "Workstations & file server hierarchy (E15)",
        parameters=tuple(wfs.WFSParameters.__dataclass_fields__),
        defaults=asdict(wfs_params),
        model=wfs.build_workstation_pool(wfs_params),
        # pool birth-death chain (n+1 states) + 2-state file server
        size={
            "n_states": (wfs_params.n_workstations + 1) + 2,
            "n_chains": 2,
            "n_components": 0,
            "n_structure_functions": 0,
        },
    )
    sip_params = sip.SIPParameters()
    add(
        "sip",
        sip.evaluate_availability,
        "SIP on IBM WebSphere composite availability (E21)",
        parameters=tuple(sip.SIPParameters.__dataclass_fields__),
        defaults=asdict(sip_params),
        model=sip.build_sip_service(sip_params),
        # leaf chains: software 3 + hardware 2 + proxy pair 5 states;
        # RBDs: node series (2 blocks) + service (proxies + n nodes)
        size={
            "n_states": 3 + 2 + 5,
            "n_chains": 3,
            "n_components": 2 + 1 + sip_params.n_nodes,
            "n_structure_functions": 2,
        },
    )
    add(
        "telecom",
        telecom.evaluate_availability,
        "Telephone switching DPM / availability (E22)",
        parameters=tuple(telecom.TelecomParameters.__dataclass_fields__),
        defaults=asdict(telecom.TelecomParameters()),
        model=telecom.build_switch(telecom.TelecomParameters()),
        size={
            "n_states": 5,
            "n_chains": 1,
            "n_components": 0,
            "n_structure_functions": 0,
        },
    )
    add(
        "rejuvenation",
        rejuvenation.evaluate_availability,
        "Software rejuvenation MRGP availability (E12)",
        parameters=tuple(rejuvenation.RejuvenationParameters.__dataclass_fields__)
        + ("interval",),
        defaults={
            **asdict(rejuvenation.RejuvenationParameters()),
            "interval": rejuvenation.DEFAULT_INTERVAL,
        },
        model=rejuvenation.build_rejuvenation_mrgp(rejuvenation.DEFAULT_INTERVAL),
        query=None,
        size={
            "n_states": 4,
            "n_chains": 1,
            "n_components": 0,
            "n_structure_functions": 0,
        },
    )
    nfv_spec = nfvchain.NFVChainSpec()
    add(
        "nfvchain",
        nfvchain.evaluate_availability,
        "NFV service-chain availability, scalable lazy-sparse SRN (E37)",
        parameters=tuple(nfvchain.NFVChainSpec.__dataclass_fields__),
        defaults=asdict(nfv_spec),
        # The lazy SRN itself, not its chain: registration must size the
        # model structurally, never by building reachability.
        model=nfvchain.build_nfv_srn(nfv_spec),
        size={
            "n_states": nfvchain.state_count(nfv_spec),
            "n_chains": 1,
            "n_components": 0,
            "n_structure_functions": 0,
        },
    )
    add(
        "boeing",
        boeing.evaluate_availability,
        "Boeing-style current-return-network fault tree (E05, compiled)",
        defaults=dict(boeing.PARAMETER_DEFAULTS),
        model=boeing.generate_boeing_style_tree(),
        query=None,
    )
    return registry
