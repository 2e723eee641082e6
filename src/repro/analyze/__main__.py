"""Command-line model lint: ``python -m repro.analyze [case-study ...]``.

With no arguments every case study is analyzed; with names only those.
Net-backed models (Petri nets / SRNs) additionally get the structural
pass summary: P/T-invariant counts, the conservation laws, and the
P-invariant state-space bound — computed without building reachability.

``--json`` emits one machine-readable JSON document (codes, severities,
invariants, predicted bounds, exit code) on stdout for CI consumption.

Exit status (documented contract, also in ``docs/DIAGNOSTICS.md``):

* ``0`` — clean: no unacknowledged findings;
* ``1`` — warnings: unacknowledged warning-severity findings only;
* ``2`` — errors: at least one error-severity finding (or a usage
  error, argparse's own convention).

A case-study module acknowledges genuine findings with::

    __diagnostics_acknowledged__ = {"M101": "reliability chain is absorbing by design"}

Acknowledged findings are printed with an ``(acknowledged)`` tag and do
not affect the exit status.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import AnalysisReport, analyze
from .invariants import StructuralAnalysis, structural_analysis

#: case-study name -> builder returning [(label, model, params, query), ...]
ModelSpec = Tuple[str, object, Optional[dict], Optional[str]]
CASE_STUDIES: Dict[str, Callable[[], List[ModelSpec]]] = {}


def _register(name: str):
    def deco(fn: Callable[[], List[ModelSpec]]):
        CASE_STUDIES[name] = fn
        return fn

    return deco


@_register("bladecenter")
def _bladecenter() -> List[ModelSpec]:
    from ..casestudies import bladecenter

    return [
        ("hierarchy", bladecenter.build_bladecenter(), None, None),
        ("compiled evaluator", bladecenter.evaluate_availability, {}, "steady_state"),
    ]


@_register("boeing")
def _boeing() -> List[ModelSpec]:
    from ..casestudies import boeing

    return [
        ("fault tree", boeing.generate_boeing_style_tree(), None, None),
        ("compiled evaluator", boeing.evaluate_availability, {}, None),
    ]


@_register("cisco")
def _cisco() -> List[ModelSpec]:
    from ..casestudies import cisco

    params = cisco.CiscoParameters()
    return [
        ("router RBD", cisco.build_router(params), None, None),
        ("redundant processor", cisco.build_redundant_processor(params), None, "steady_state"),
        ("compiled evaluator", cisco.evaluate_availability, {}, "steady_state"),
    ]


@_register("nfvchain")
def _nfvchain() -> List[ModelSpec]:
    from ..casestudies import nfvchain

    spec = nfvchain.NFVChainSpec()
    return [
        # The raw net: the structural pass sizes the chain without
        # building a single marking (the whole point of the pre-flight).
        ("service-chain net", nfvchain.build_nfv_net(spec), None, None),
        ("compiled evaluator", nfvchain.evaluate_availability, {}, "steady_state"),
    ]


@_register("rejuvenation")
def _rejuvenation() -> List[ModelSpec]:
    from ..casestudies import rejuvenation

    return [("MRGP (240 h timer)", rejuvenation.build_rejuvenation_mrgp(240.0), None, None)]


@_register("sip")
def _sip() -> List[ModelSpec]:
    from ..casestudies import sip

    return [("hierarchy", sip.build_sip_service(), None, None)]


@_register("sun")
def _sun() -> List[ModelSpec]:
    from ..casestudies import sun

    params = sun.SunParameters()
    return [
        ("immediate policy", sun.build_platform(params, "immediate"), None, "steady_state"),
        ("deferred policy", sun.build_platform(params, "deferred"), None, "steady_state"),
        ("compiled evaluator", sun.evaluate_availability, {}, "steady_state"),
    ]


@_register("telecom")
def _telecom() -> List[ModelSpec]:
    from ..casestudies import telecom

    return [("switch CTMC", telecom.build_switch(telecom.TelecomParameters()), None, "steady_state")]


@_register("wfs")
def _wfs() -> List[ModelSpec]:
    from ..casestudies import wfs

    params = wfs.WFSParameters()
    return [
        ("workstation pool", wfs.build_workstation_pool(params), None, "steady_state"),
        ("file server", wfs.build_file_server(params), None, "steady_state"),
    ]


def _acknowledged(case: str) -> Dict[str, str]:
    import importlib

    module = importlib.import_module(f"repro.casestudies.{case}")
    return dict(getattr(module, "__diagnostics_acknowledged__", {}))


def _net_of(model) -> Optional[object]:
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


def lint_case_study(
    case: str,
) -> Tuple[List[Tuple[str, AnalysisReport]], List[Tuple[str, str]]]:
    """Analyze every registered model of one case study.

    Returns ``(reports, failures)`` where ``failures`` lists
    ``(severity, reason)`` pairs for everything that makes the case
    study not clean: any error, or any warning whose code the module
    does not acknowledge.
    """
    acknowledged = _acknowledged(case)
    reports: List[Tuple[str, AnalysisReport]] = []
    failures: List[Tuple[str, str]] = []
    for label, model, params, query in CASE_STUDIES[case]():
        report = analyze(model, params=params, query=query)
        reports.append((label, report))
        for diag in report.errors:
            failures.append(("error", f"{case}/{label}: {diag.render()}"))
        for diag in report.warnings:
            if diag.code not in acknowledged:
                failures.append(
                    ("warning", f"{case}/{label}: unacknowledged {diag.render()}")
                )
    return reports, failures


def _structural_of(case: str) -> Dict[str, StructuralAnalysis]:
    """Structural pass per net-backed model label of one case study."""
    out: Dict[str, StructuralAnalysis] = {}
    for label, model, _params, _query in CASE_STUDIES[case]():
        net = _net_of(model)
        if net is not None:
            out[label] = structural_analysis(net)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Static model diagnostics over the tutorial case studies.",
        epilog="exit status: 0 clean, 1 unacknowledged warnings, 2 errors",
    )
    parser.add_argument(
        "cases",
        nargs="*",
        metavar="case-study",
        help=f"case studies to lint (default: all of {', '.join(sorted(CASE_STUDIES))})",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="only print failures and the final verdict"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON report on stdout (codes, severities,"
        " invariants, predicted bounds, exit_code) instead of the human listing",
    )
    args = parser.parse_args(argv)
    cases = args.cases or sorted(CASE_STUDIES)
    unknown = sorted(set(cases) - set(CASE_STUDIES))
    if unknown:
        parser.error(f"unknown case stud{'y' if len(unknown) == 1 else 'ies'}: {', '.join(unknown)}")

    all_failures: List[Tuple[str, str]] = []
    json_cases: Dict[str, List[Dict[str, Any]]] = {}
    for case in cases:
        acknowledged = _acknowledged(case)
        reports, failures = lint_case_study(case)
        structural = _structural_of(case)
        all_failures.extend(failures)
        json_models: List[Dict[str, Any]] = []
        for label, report in reports:
            analysis = structural.get(label)
            if args.json:
                entry = report.to_dict()
                entry["label"] = label
                entry["acknowledged"] = {
                    code: acknowledged[code]
                    for code in report.codes
                    if code in acknowledged
                }
                entry["structural"] = analysis.to_dict() if analysis else None
                json_models.append(entry)
                continue
            n = len(report.diagnostics)
            status = "clean" if n == 0 else f"{n} finding(s)"
            if not args.quiet:
                print(f"{case}/{label} [{report.model_type}]: {status}")
                for diag in report:
                    tag = " (acknowledged)" if diag.code in acknowledged else ""
                    print(f"  {diag.render()}{tag}")
                if analysis is not None:
                    for line in analysis.render().splitlines():
                        print(f"  | {line}")
        json_cases[case] = json_models

    n_errors = sum(1 for sev, _m in all_failures if sev == "error")
    n_warnings = sum(1 for sev, _m in all_failures if sev == "warning")
    exit_code = 2 if n_errors else (1 if n_warnings else 0)

    if args.json:
        print(
            json.dumps(
                {
                    "cases": json_cases,
                    "failures": [
                        {"severity": sev, "message": msg} for sev, msg in all_failures
                    ],
                    "n_errors": n_errors,
                    "n_warnings": n_warnings,
                    "exit_code": exit_code,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return exit_code

    if all_failures:
        print(f"\nFAIL: {len(all_failures)} unacknowledged finding(s)")
        for _sev, failure in all_failures:
            print(f"  {failure}")
        return exit_code
    if not args.quiet:
        print(f"\nOK: {len(cases)} case stud{'y' if len(cases) == 1 else 'ies'} clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
