"""Workload ``sparse-sweep``: failure-rate sweeps over a 32 768-state NFV chain.

The NFV service chain with 5 VNFs x 7 replicas has 8^5 = 32 768
tangible states and 319 488 stored generator entries: above every
GTH/direct threshold, so each point takes the Krylov route of the
10^5-state runs at a quarter of the cost.

Two legs, alternating block by block, share the rate-fill and Krylov
layers but use them differently:

* ``sweep``: :meth:`CompiledSparseCTMC.sweep` over seeded geometric
  ladders, each point warm-started from the previous one;
* ``batch``: other seeded points through
  ``evaluate_batch(nfvchain.evaluate_availability, ...)``, the engine
  and the ``solve_steady_state`` front door (full validation, a fixed
  reference warm start) that serve and campaigns take.

Set-up is ``compile_nfv_chain`` (lazy BFS, CSR, rate terms) plus the
reference solve.  Every value is checked against the product-form
oracle ``nfvchain.analytic_availability``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List

import numpy as np

import repro.engine
import repro.markov.fallback
import repro.sparse.krylov
import repro.sparse.reachability
from repro.casestudies import nfvchain
from repro.compile import sparse as compiled_sparse

from common import Recorder, breakdown, mean, median, peak_rss_mb, windowed_pct

SPEC = nfvchain.NFVChainSpec(n_vnfs=5, replicas=7, min_replicas=1)
SETUP_REPEATS = 3
SWEEP_BLOCK = 10  # points per sweep() call (one cold start, then warm)
BATCH_BLOCK = 10  # points per evaluate_batch() call
SPAN = 5.0  # rates range over [base / SPAN, base * SPAN]
ORACLE_TOL = 1e-8
#: untraced share of each leg in a traced run (tracing-overhead baseline)
CALIBRATION = 0.25
TAIL = 90  # percentile within each eighth of the batch leg (~16 points)

LAYERS = ("sparse", "compile", "markov", "krylov", "engine", "model")
#: what each end-to-end metric measures on this workload
MEANING = {
    "throughput_per_s": "sweep_points_per_s",
    "second_throughput_per_s": "batch_points_per_s",
    "latency_p50_ms": "batch_point_p50_ms",
    "latency_tail_ms": "batch_point_p90_ms (median of 8 windows)",
}


def _setup() -> float:
    """Compile anew and solve the reference point; seconds taken."""
    # The structure memo would turn a repeat into a dictionary lookup.
    nfvchain._STRUCTURE_CACHE.clear()
    t0 = time.perf_counter()
    compiled = nfvchain.compile_nfv_chain(SPEC)
    compiled({})  # the build point: solves the reference warm-start vector
    return time.perf_counter() - t0


def _stratified(rng, n: int) -> np.ndarray:
    """``n`` rates, one drawn log-uniformly in each of ``n`` equal strata of
    the span: seeds differ in values, not in how far they lie from the
    reference point, which sets the Krylov iteration count."""
    edges = np.linspace(-np.log(SPAN), np.log(SPAN), n + 1)
    return SPEC.failure_rate * np.exp(rng.uniform(edges[:-1], edges[1:]))


def _sweep_points(rng) -> List[Dict[str, float]]:
    """An ascending ladder across the full rate span."""
    return [{"failure_rate": float(f)} for f in _stratified(rng, SWEEP_BLOCK)]


def _batch_points(rng) -> List[Dict[str, float]]:
    rates = _stratified(rng, BATCH_BLOCK)
    return [
        {
            "n_vnfs": SPEC.n_vnfs,
            "replicas": SPEC.replicas,
            "min_replicas": SPEC.min_replicas,
            "failure_rate": float(f),
        }
        for f in rates
    ]


def _oracle(points) -> np.ndarray:
    return np.array(
        [nfvchain.analytic_availability(replace(SPEC, failure_rate=p["failure_rate"])) for p in points]
    )


class _Leg:
    """Accumulates one leg's points, wall time and correctness."""

    def __init__(self):
        self.points = 0
        self.wall = 0.0
        self.block_rates: List[float] = []
        self.failed = 0
        self.max_err = 0.0
        self.point_seconds: List[float] = []
        self.iterations: List[int] = []

    def check(self, outputs, points) -> None:
        err = np.abs(np.asarray(outputs, dtype=float) - _oracle(points))
        bad = ~(err <= ORACLE_TOL)  # NaN counts as wrong
        self.failed += int(bad.sum())
        self.max_err = max(self.max_err, float(np.nanmax(err)) if err.size else 0.0)


def _sweep_block(compiled, rng, leg: _Leg, pending: list) -> None:
    points = _sweep_points(rng)
    t0 = time.perf_counter()
    outputs = compiled.sweep(points)
    wall = time.perf_counter() - t0
    leg.points += len(points)
    leg.wall += wall
    leg.block_rates.append(len(points) / wall)
    leg.iterations.extend(i for i in compiled.last_sweep_stats.iterations if i is not None)
    pending.append((leg, outputs, points))


def _batch_block(rng, leg: _Leg, pending: list) -> None:
    points = _batch_points(rng)
    t0 = time.perf_counter()
    result = repro.engine.evaluate_batch(nfvchain.evaluate_availability, points)
    wall = time.perf_counter() - t0
    leg.points += len(points)
    leg.wall += wall
    leg.block_rates.append(len(points) / wall)
    leg.point_seconds.extend(float(d) for d in result.stats.durations)
    leg.failed += result.n_failed
    pending.append((leg, result.outputs, points))


def _recorder() -> Recorder:
    rec = Recorder()
    rec.target(repro.sparse.reachability, "build_sparse_reachability", "sparse")
    rec.target(nfvchain, "compile_nfv_chain", "compile")
    rec.target(nfvchain, "evaluate_availability", "model")
    for method in ("fill", "sweep", "_reference", "availability", "__call__"):
        rec.target(compiled_sparse.CompiledSparseCTMC, method, "compile")
    rec.target(compiled_sparse.CompiledNFVChain, "evaluate_many", "compile", "nfv_evaluate_many")
    rec.target(compiled_sparse, "solve_steady_state", "markov")
    rec.target(repro.markov.fallback, "validate_generator", "markov")
    rec.target(repro.markov.fallback, "generator_diagnostics", "markov")
    rec.target(repro.sparse.krylov, "steady_state_iterative", "krylov")
    rec.target(repro.engine, "evaluate_batch", "engine")
    return rec


def run(seed: int, seconds: float, trace: bool) -> dict:
    rng = np.random.default_rng(seed)
    recorder = _recorder() if trace else None
    reports = []  # SolverReports returned in the traced batch leg
    if recorder is not None:
        def keep_report(layer, name, args, result, duration):
            if name == "solve_steady_state" and recorder.leg == "batch":
                reports.append(result)

        recorder.on_return = keep_report

    setups = []
    for _ in range(SETUP_REPEATS):
        if recorder is not None:
            with recorder.active("setup"):
                setups.append(_setup())
        else:
            setups.append(_setup())
    compiled = nfvchain.compile_nfv_chain(SPEC)

    sweep, batch = _Leg(), _Leg()
    legs = [sweep, batch]
    pending: list = []
    # The legs alternate block by block, so both see the whole run: the
    # host's speed drifts over tens of seconds (see README.md).
    blocks = (
        ("sweep", sweep, lambda leg: _sweep_block(compiled, rng, leg, pending)),
        ("batch", batch, lambda leg: _batch_block(rng, leg, pending)),
    )
    start = time.perf_counter()
    if recorder is not None:
        plain = {"sweep": _Leg(), "batch": _Leg()}
        legs.extend(plain.values())
        while time.perf_counter() < start + CALIBRATION * seconds:
            for name, _, block in blocks:
                block(plain[name])
    while time.perf_counter() < start + seconds:
        for name, leg, block in blocks:
            if recorder is None:
                block(leg)
            else:
                with recorder.active(name):
                    block(leg)
    overhead = {}
    if recorder is not None:
        for name, leg, _ in blocks:
            overhead[name] = (leg.wall / leg.points) / (plain[name].wall / plain[name].points) - 1.0

    for leg, outputs, points in pending:
        leg.check(outputs, points)
    attempted = sum(leg.points for leg in legs)
    failed = sum(leg.failed for leg in legs)
    checks = {
        "sweep_max_oracle_err": sweep.max_err,
        "batch_max_oracle_err": batch.max_err,
        "oracle_tol": ORACLE_TOL,
        "n_states": compiled.n_states,
        "nnz": compiled.nnz,
    }
    details = {
        "setup_s_all": setups,
        "sweep_points": sweep.points,
        "batch_points": batch.points,
        "latency_samples": len(batch.point_seconds),
        "sweep_block_rates": sweep.block_rates,
        "batch_block_rates": batch.block_rates,
    }
    result = {"attempted": attempted, "failed": failed, "checks": checks, "details": details}
    if recorder is None:
        result["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "throughput_per_s": median(sweep.block_rates),
            "second_throughput_per_s": median(batch.block_rates),
            "latency_p50_ms": 1e3 * median(batch.point_seconds),
            "latency_tail_ms": 1e3 * windowed_pct(batch.point_seconds, TAIL),
        }
        return result

    rec = recorder
    builds = rec.durations("sparse", "build_sparse_reachability", ("setup",))
    references = rec.durations("compile", "_reference", ("setup",))
    sweep_kernel = rec.durations("krylov", "steady_state_iterative", ("sweep",))
    batch_kernel = rec.durations("krylov", "steady_state_iterative", ("batch",))
    front_door = rec.durations("markov", "solve_steady_state", ("batch",))
    engine_calls = rec.durations("engine", "evaluate_batch", ("batch",))
    stage_seconds = [
        next(a.duration for a in report.attempts if a.success) for report in reports
    ]
    batch_iterations = [r.iterations for r in reports if r.iterations is not None]
    layer = {
        "sparse.build_s": median(builds),
        "sparse.states_per_s": compiled.n_states / median(builds),
        "compile.reference_s": median(references),
        "compile.fill_ms": 1e3 * mean(rec.durations("compile", "fill", ("sweep",))),
        "krylov.solve_ms": 1e3 * mean(sweep_kernel),
        "krylov.iterations_mean": mean(sweep.iterations),
        "krylov.iterations_max": float(max(sweep.iterations)),
        "markov.validate_ms": 1e3 * mean(rec.durations("markov", "validate_generator", ("batch",))),
        "markov.diagnose_ms": 1e3 * mean(rec.durations("markov", "generator_diagnostics", ("batch",))),
        "krylov.batch_solve_ms": 1e3 * mean(batch_kernel),
        "krylov.batch_iterations_mean": mean(batch_iterations),
        "markov.guard_ms": 1e3 * (mean(stage_seconds) - mean(batch_kernel)),
        "engine.batch_overhead_ms": 1e3 * (sum(engine_calls) - sum(front_door)) / batch.points,
        "trace.overhead_frac": (
            overhead["sweep"] * sweep.wall + overhead["batch"] * batch.wall
        ) / (sweep.wall + batch.wall),
    }
    result["layer_metrics"] = layer
    result["breakdown"] = breakdown(rec, LAYERS)
    return result
