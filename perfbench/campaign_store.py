"""Workload ``campaign-store``: durable BladeCenter campaigns, cold then resumed.

Each cycle draws a seeded random ``PointsCampaign`` of ``POINTS`` points
over the compiled BladeCenter evaluator and runs it through
``run_campaign(..., store=<fresh sqlite>, executor="process", n_jobs=2)``
(the cold leg), then runs the same campaign again against the full store
(the resume leg, served entirely from the store).  A point costs ~0.2 ms
of evaluation, so engine dispatch, pickling and store commits dominate
the cold leg and store reads the resume leg.

Set-up runs in a fresh process, from launch (interpreter start and
imports) through evaluator compilation, store open and one evaluation of
the default point, which is the warm-up: without it every forked pool
worker pays the evaluator's first-call imports again, chunk after chunk,
until the parent happens to pay them (see README.md).  Outputs of both
legs must be byte-identical to a serial in-memory ``run_campaign`` and
the resume must evaluate nothing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

import repro.engine
import repro.store.resumable
from repro.casestudies.bladecenter import BladeCenterParameters
from repro.compile import CompiledBladeCenter
from repro.engine import PointsCampaign
from repro.store import CampaignStore, ResumableCampaign

from common import SRC, WORK, Recorder, breakdown, mean, median, peak_rss_mb, windowed_pct

POINTS = 150  # per campaign: 6 chunks of the default 25
N_JOBS = 2
SETUP_REPEATS = 5
#: seeded factors in [1/SPREAD, SPREAD] on these BladeCenter rates
SPREAD = 2.0
PERTURBED = (
    "cpu_failure_rate",
    "memory_failure_rate",
    "disk_failure_rate",
    "nic_failure_rate",
    "software_failure_rate",
    "power_failure_rate",
)
CALIBRATION = 0.25
TAIL = 90  # percentile within each eighth of the run (~13 campaigns)

LAYERS = ("engine", "store")
#: what each end-to-end metric measures on this workload
MEANING = {
    "throughput_per_s": "campaign_points_per_s",
    "second_throughput_per_s": "resume_points_per_s",
    "latency_p50_ms": "campaign_p50_ms",
    "latency_tail_ms": "campaign_p90_ms (median of 8 windows)",
}
STORE_METHODS = (
    "create_campaign",
    "claim_chunk",
    "record_chunk",
    "lookup_many",
    "chunk_states",
    "failures",
    "reopen_chunks",
)


def _points(rng, defaults: Dict[str, float]) -> List[Dict[str, float]]:
    factors = np.exp(rng.uniform(-np.log(SPREAD), np.log(SPREAD), (POINTS, len(PERTURBED))))
    return [
        {name: float(defaults[name] * f) for name, f in zip(PERTURBED, row)}
        for row in factors
    ]


def _setup(path: str) -> CompiledBladeCenter:
    """Compile, open a store, warm this process up."""
    evaluator = CompiledBladeCenter()
    CampaignStore(path).close()
    evaluator({})  # the default point: first-call imports happen here, once
    return evaluator


def _timed_setup(path: str) -> float:
    """Seconds from launching a fresh process until it has set up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0 or done.stdout.strip() != "ready":
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
    return time.perf_counter() - t0


class _Legs:
    def __init__(self):
        self.cold_seconds: List[float] = []
        self.resume_seconds: List[float] = []
        self.cycles = []  # (points, cold outputs, resume outputs)
        self.reevaluated = 0
        self.cold_failed = 0

    @property
    def points(self) -> int:
        return POINTS * len(self.cold_seconds)


def _cycle(evaluator, points, path: str, legs: _Legs, recorder=None) -> None:
    spec = PointsCampaign(points)
    store = CampaignStore(path)
    try:
        if recorder is not None:
            recorder.leg = "cold"
        t0 = time.perf_counter()
        cold = repro.engine.run_campaign(
            evaluator, spec, store=store, executor="process", n_jobs=N_JOBS
        )
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.leg = "resume"
        resumed = repro.engine.run_campaign(
            evaluator, spec, store=store, executor="process", n_jobs=N_JOBS
        )
        t2 = time.perf_counter()
    finally:
        store.close()
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    legs.cold_seconds.append(t1 - t0)
    legs.resume_seconds.append(t2 - t1)
    legs.reevaluated += resumed.stats.cache_misses
    legs.cold_failed += cold.n_failed
    legs.cycles.append((points, cold.outputs.tobytes(), resumed.outputs.tobytes()))


def _bits(raw: bytes) -> np.ndarray:
    """Float64 outputs as raw 64-bit words, for byte-identity checks."""
    return np.frombuffer(raw, dtype=np.uint64)


def _recorder(duplicates: List[int]) -> Recorder:
    rec = Recorder()
    rec.target(repro.engine, "run_campaign", "engine")
    rec.target(repro.store.resumable, "evaluate_batch", "engine")
    rec.target(ResumableCampaign, "run", "store", "campaign_run")
    for method in STORE_METHODS:
        rec.target(CampaignStore, method, "store")

    def on_return(layer, name, args, result, duration):
        if name == "record_chunk":
            duplicates.append(int(result[1]))

    rec.on_return = on_return
    return rec


def run(seed: int, seconds: float, trace: bool) -> dict:
    rng = np.random.default_rng(seed)
    workdir = os.path.join(WORK, f"campaign-tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(rng, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(rng, seconds: float, trace: bool, workdir: str) -> dict:
    setups = [_timed_setup(os.path.join(workdir, f"setup{k}.sqlite")) for k in range(SETUP_REPEATS)]
    evaluator = _setup(os.path.join(workdir, "setup.sqlite"))
    defaults = {name: float(getattr(BladeCenterParameters(), name)) for name in PERTURBED}

    duplicates: List[int] = []
    recorder = _recorder(duplicates) if trace else None
    legs, plain = _Legs(), _Legs()
    path = os.path.join(workdir, "campaign.sqlite")
    start = time.perf_counter()
    if recorder is None:
        while time.perf_counter() < start + seconds:
            _cycle(evaluator, _points(rng, defaults), path, legs)
    else:
        while time.perf_counter() < start + CALIBRATION * seconds:
            _cycle(evaluator, _points(rng, defaults), path, plain)
        with recorder.active("cold"):
            while time.perf_counter() < start + seconds:
                _cycle(evaluator, _points(rng, defaults), path, legs, recorder)

    if recorder is not None:
        # The useful work: the traced points, serially, on a fresh evaluator
        # whose memo (like a forked worker's) has not seen them.
        traced_points = [p for points, _, _ in legs.cycles for p in points]
        t0 = time.perf_counter()
        CompiledBladeCenter().evaluate_many(traced_points)
        eval_us = 1e6 * (time.perf_counter() - t0) / len(traced_points)

    # Correctness, after all timing: a serial in-memory reference run.
    failed = 0
    for run_legs in (legs, plain):
        failed += run_legs.reevaluated + run_legs.cold_failed
        for points, cold, resumed in run_legs.cycles:
            reference = repro.engine.run_campaign(evaluator, PointsCampaign(points))
            expected = _bits(reference.outputs.tobytes())
            failed += int(np.sum(_bits(cold) != expected) + np.sum(_bits(resumed) != expected))
    attempted = 2 * (legs.points + plain.points)
    details = {
        "setup_s_all": setups,
        "cycles": len(legs.cycles) + len(plain.cycles),
        "points_per_campaign": POINTS,
        "resume_reevaluated": legs.reevaluated + plain.reevaluated,
        "latency_samples": len(legs.cold_seconds),
        "cold_seconds": legs.cold_seconds,
        "resume_seconds": legs.resume_seconds,
    }
    result = {"attempted": attempted, "failed": failed, "checks": {}, "details": details}
    if recorder is None:
        result["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(children=True),
            "throughput_per_s": median([POINTS / s for s in legs.cold_seconds]),
            "second_throughput_per_s": median([POINTS / s for s in legs.resume_seconds]),
            "latency_p50_ms": 1e3 * median(legs.cold_seconds),
            "latency_tail_ms": 1e3 * windowed_pct(legs.cold_seconds, TAIL),
        }
        return result

    rec = recorder
    batches = rec.durations("engine", "evaluate_batch", ("cold",))
    commits = rec.durations("store", "record_chunk", ("cold",))
    traced = sum(legs.cold_seconds) + sum(legs.resume_seconds)
    untraced = sum(plain.cold_seconds) + sum(plain.resume_seconds)
    result["layer_metrics"] = {
        "store.create_ms": 1e3 * mean(rec.durations("store", "create_campaign", ("cold",))),
        "store.claim_s": sum(rec.durations("store", "claim_chunk", ("cold",))),
        "store.commit_s": sum(commits),
        "store.commit_p50_ms": 1e3 * median(commits),
        "store.lookup_cold_s": sum(rec.durations("store", "lookup_many", ("cold",))),
        "store.lookup_resume_s": sum(rec.durations("store", "lookup_many", ("resume",))),
        "store.chunks": float(len(commits)),
        "store.duplicate_commits": float(sum(duplicates)),
        "store.resume_reevaluated": float(legs.reevaluated + plain.reevaluated),
        "engine.batch_s": sum(batches),
        "engine.chunk_batch_p50_ms": 1e3 * median(batches),
        "compile.eval_us": eval_us,
        "engine.useful_ratio": legs.points * eval_us * 1e-6 / (N_JOBS * sum(batches)),
        "trace.overhead_frac": (traced / len(legs.cycles)) / (untraced / len(plain.cycles)) - 1.0,
    }
    result["breakdown"] = breakdown(rec, LAYERS)
    return result


if __name__ == "__main__":
    _setup(sys.argv[1])
    print("ready")
