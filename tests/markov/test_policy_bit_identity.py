"""Solver results keep their bits under the one solver-policy table.

The digests in ``policy_bit_identity.json`` were computed by the solver
that spread its route thresholds and tolerances over keyword defaults
and class attributes, before they moved into one table.  Each digest
covers a stationary vector's bytes and the float-hex form of its
``SolverReport.to_dict()`` without durations and without ``route``, so
the same bits and the same stage order must come out of every route.

Covered: the NFV chain zoo (plus one chain above the reachability
iterative row, so warm starts and ``sweep`` run their Krylov branch),
the generated chains of the compiled-vs-uncompiled differential test
(every steady-state and transient method) and the nine case studies
at their defaults and two perturbed points.

A generated chain is pinned part by part (``generated/<seed>/steady/
<method>``, ``.../report``, ``.../compiled``, ``.../cached``,
``.../transient/<method>``, ``.../compiled_transient``), so a change to
one kernel re-pins only the digests its computation passes through.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest
from scipy import sparse

from repro.casestudies import nfvchain
from repro.casestudies.nfvchain import NFVChainSpec
from repro.compile import CompiledCTMC
from repro.markov.fallback import solve_steady_state
from repro.serve import default_registry
from repro.sparse import SparseCTMC

from ..compile.test_frozen_preflight import NFV_ZOO, RATES
from ..compile.test_generated_chains import SEEDS, TIMES, generate, uncompiled

GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("policy_bit_identity.json")).read_text()
)

#: 9**4 = 6561 states: above the reachability iterative row
LARGE_NFV = NFVChainSpec(n_vnfs=4, replicas=8)
RATE_IDS = ("nominal", "stiff", "fast-fail")
STEADY_METHODS = ("gth", "direct", "power", "auto", "gmres", "bicgstab")
TRANSIENT_METHODS = ("uniformization", "ode", "krylov", "auto")
VOLATILE = ("duration", "validation_seconds", "route")


def canonical(value):
    """JSON form with every float as its exact hex spelling."""
    if isinstance(value, np.ndarray):
        return value.tobytes().hex()
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def report_item(report):
    return {"pi": canonical(report.pi), "report": canonical(report.to_dict())}


def digest(item) -> str:
    return hashlib.sha256(json.dumps(item, sort_keys=True).encode()).hexdigest()[:16]


def nfv_items(spec):
    compiled = nfvchain.compile_nfv_chain(spec)
    tag = f"nfv/{spec.n_vnfs}x{spec.replicas}x{spec.min_replicas}x{spec.repair_crews}"
    items = {}
    for rate_id, values in zip(RATE_IDS, RATES):
        items[f"{tag}/{rate_id}"] = {
            "compiled": report_item(compiled.steady_state_report(values)),
            "cold": report_item(compiled.steady_state_report(values, x0=None)),
            "sparse": report_item(SparseCTMC(compiled.generator(values)).steady_state_report()),
            "availability": canonical(compiled.availability(values)),
        }
    swept = compiled.sweep(RATES)
    items[f"{tag}/sweep"] = {
        "availability": canonical(swept),
        "iterations": list(compiled.last_sweep_stats.iterations),
    }
    return items


def generated_items(seed):
    """One item per part, so a change to one method re-pins only its own."""
    labels, transitions, values = generate(seed)
    chain = uncompiled(labels, transitions, values)
    compiled = CompiledCTMC(labels, transitions)
    tag = f"generated/{seed}"
    items = {
        f"{tag}/steady/{m}": canonical(list(chain.steady_state(method=m).values()))
        for m in STEADY_METHODS
    }
    items[f"{tag}/report"] = report_item(chain.steady_state_report())
    items[f"{tag}/compiled"] = canonical(compiled.steady_state(values))
    items[f"{tag}/cached"] = canonical(compiled.steady_state_cached(values))
    for m in TRANSIENT_METHODS:
        items[f"{tag}/transient/{m}"] = canonical(chain.transient(TIMES, labels[0], method=m))
    items[f"{tag}/compiled_transient"] = canonical(
        compiled.transient(values, TIMES, labels[0])
    )
    return items


def perturbed_points(defaults):
    points = [dict(defaults)]
    floats = [k for k, v in defaults.items() if isinstance(v, float) and v > 0.0]
    for key in floats[:2]:
        points.append(dict(defaults, **{key: defaults[key] * 0.5}))
    return points


def casestudy_item(entry):
    out = []
    for point in perturbed_points(entry.defaults):
        try:
            out.append(canonical(float(entry.evaluate(point))))
        except Exception as exc:  # the error contract is part of the bits
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def birth_death(n, lam=0.4, mu=1.0):
    q = sparse.diags([np.full(n - 1, lam), np.full(n - 1, mu)], [1, -1], shape=(n, n))
    q = q - sparse.diags(np.asarray(q.sum(axis=1)).ravel())
    return q.tocsr()


def method_item(method):
    return report_item(solve_steady_state(birth_death(100, lam=0.8), method=method))


def all_items():
    """Every captured item by name (used to regenerate the golden file)."""
    items = {}
    for spec in NFV_ZOO + [LARGE_NFV]:
        items.update(nfv_items(spec))
    for seed in SEEDS:
        items.update(generated_items(seed))
    registry = default_registry(diagnostics="ignore", probe=False)
    for name in registry.names():
        items[f"casestudy/{name}"] = casestudy_item(registry.get(name))
    for method in STEADY_METHODS:
        items[f"birth-death/{method}"] = method_item(method)
    return items


@pytest.mark.parametrize("spec", NFV_ZOO + [LARGE_NFV], ids=lambda s: f"{s.n_vnfs}x{s.replicas}")
def test_nfv_zoo_bits_unchanged(spec):
    got = {name: digest(item) for name, item in nfv_items(spec).items()}
    assert got == {name: GOLDEN[name] for name in got}


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_chain_bits_unchanged(seed):
    got = {name: digest(item) for name, item in generated_items(seed).items()}
    assert got == {name: GOLDEN[name] for name in got}


def test_case_study_bits_unchanged():
    registry = default_registry(diagnostics="ignore", probe=False)
    assert len(registry.names()) == 9
    got = {f"casestudy/{n}": digest(casestudy_item(registry.get(n))) for n in registry.names()}
    assert got == {name: GOLDEN[name] for name in got}


@pytest.mark.parametrize("method", STEADY_METHODS)
def test_single_method_report_bits_unchanged(method):
    assert digest(method_item(method)) == GOLDEN[f"birth-death/{method}"]


def test_golden_file_covers_every_item():
    parts = [f"steady/{m}" for m in STEADY_METHODS]
    parts += ["report", "compiled", "cached", "compiled_transient"]
    parts += [f"transient/{m}" for m in TRANSIENT_METHODS]
    expected = {f"generated/{seed}/{part}" for seed in SEEDS for part in parts} | {
        f"birth-death/{m}" for m in STEADY_METHODS
    }
    assert expected <= set(GOLDEN)
    assert sum(name.startswith("nfv/") for name in GOLDEN) == 4 * (len(NFV_ZOO) + 1)
    assert sum(name.startswith("casestudy/") for name in GOLDEN) == 9
