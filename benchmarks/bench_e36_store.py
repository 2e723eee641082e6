"""E36 — durable campaign store: crash recovery, sharding, warm overhead.

Durability claims: (1) a 200-point compiled BladeCenter campaign whose
worker is SIGKILLed at ~50% resumes to byte-identical results, with the
resume re-evaluating only the uncommitted points — the kill of this
serial worker loses at most its round in flight, which is one chunk; (2) two workers draining one shared store
commit every chunk exactly once (zero duplicate result rows); (3) a
fully-warm rerun through the store-backed cache costs within 5% of the
pure in-memory cache, because the memory LRU fronts the sqlite tier.

The wall-clock and recovery record lands in ``BENCH_e36.json``.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from conftest import print_table, write_record
from repro.casestudies.bladecenter import evaluate_availability
from repro.engine import EvaluationCache, evaluate_batch
from repro.store import (
    CampaignStore,
    ResumableCampaign,
    StoreBackedCache,
    campaign_id_for,
    encode_point_key,
)

N_POINTS = 200
CHUNK = 25  # 8 chunks
KILL_AFTER = 103  # dies mid-chunk-5: 4 chunks (100 points) committed

POINTS = [
    {
        "disk_failure_rate": 1e-5 * (1.0 + 0.005 * k),
        "software_failure_rate": 1.0 / 1440.0 * (1.0 + 0.002 * k),
    }
    for k in range(N_POINTS)
]

RECORD = {}


def _worker_cmd(path):
    return [
        sys.executable, "-m", "repro.store", "resume",
        "--store", path, "--worker-id", "bench-e36", "--quiet",
    ]


def _worker_env():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_kill_at_half_resume_bit_identical(tmp_path):
    """SIGKILL at ~50%: whole chunks survive, resume re-evaluates only
    the uncommitted tail, final outputs byte-identical to uninterrupted."""
    baseline = np.asarray(
        evaluate_batch(evaluate_availability, POINTS).outputs, dtype=float
    )

    path = str(tmp_path / "e36.sqlite")
    campaign_id = campaign_id_for(
        "bladecenter", [encode_point_key(p) for p in POINTS], chunk_size=CHUNK
    )
    with CampaignStore(path) as store:
        store.create_campaign(campaign_id, "bladecenter", POINTS, chunk_size=CHUNK)

    start = time.perf_counter()
    proc = subprocess.run(
        _worker_cmd(path) + ["--kill-after", str(KILL_AFTER)],
        env=_worker_env(), capture_output=True, timeout=600,
    )
    kill_leg_s = time.perf_counter() - start
    assert proc.returncode == -signal.SIGKILL

    with CampaignStore(path) as store:
        committed = store.counts("bladecenter")["ok"]
    assert committed % CHUNK == 0, "partial chunks never reach the store"
    assert 0 < committed < N_POINTS
    lost = KILL_AFTER - committed  # evaluated but unflushed at the kill
    assert 0 <= lost <= CHUNK, "the kill loses at most the chunk in flight"

    start = time.perf_counter()
    proc = subprocess.run(
        _worker_cmd(path), env=_worker_env(), capture_output=True, timeout=600
    )
    resume_leg_s = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr.decode()

    with CampaignStore(path) as store:
        verify = ResumableCampaign(
            evaluate_availability, POINTS, store, model="bladecenter", chunk_size=CHUNK
        )
        outputs = verify.run().outputs
        assert verify.evaluated_points == 0  # everything served durably
    assert outputs.tobytes() == baseline.tobytes()

    print_table(
        f"E36: {N_POINTS}-point BladeCenter campaign, SIGKILL at eval {KILL_AFTER}",
        ["quantity", "value"],
        [
            ("points committed at kill", float(committed)),
            ("evaluations lost to the kill", float(lost)),
            ("chunk size (max loss)", float(CHUNK)),
            ("kill leg wall s", kill_leg_s),
            ("resume leg wall s", resume_leg_s),
        ],
    )
    RECORD["crash_recovery"] = {
        "points": N_POINTS,
        "chunk_size": CHUNK,
        "killed_at_evaluation": KILL_AFTER,
        "points_committed_at_kill": committed,
        "evaluations_lost": lost,
        "resume_reevaluated": N_POINTS - committed,
        "bit_identical": True,
        "kill_leg_s": kill_leg_s,
        "resume_leg_s": resume_leg_s,
    }
    write_record("e36", RECORD)


def test_two_workers_share_one_store_without_duplicates(tmp_path):
    """Two workers drain one store: all points exactly once, zero
    duplicate commits, disjoint chunk ownership."""
    path = str(tmp_path / "e36_shard.sqlite")
    with CampaignStore(path) as store:
        workers = [
            ResumableCampaign(
                evaluate_availability, POINTS, store, model="bladecenter",
                chunk_size=CHUNK, worker_id=f"w{k}",
            )
            for k in range(2)
        ]
        start = time.perf_counter()
        threads = [threading.Thread(target=w.run) for w in workers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        shared_s = time.perf_counter() - start

        assert all(w.complete for w in workers)
        assert sum(w.evaluated_points for w in workers) == N_POINTS
        assert sum(w.duplicate_commits for w in workers) == 0
        assert sum(w.committed_chunks for w in workers) == N_POINTS // CHUNK
        assert store.counts("bladecenter")["ok"] == N_POINTS

    print_table(
        "E36b: two workers, one shared store",
        ["worker", "evaluated", "chunks", "duplicates"],
        [
            (w.worker_id, float(w.evaluated_points), float(w.committed_chunks),
             float(w.duplicate_commits))
            for w in workers
        ],
    )
    RECORD["shared_store"] = {
        "workers": 2,
        "points": N_POINTS,
        "evaluated_per_worker": [w.evaluated_points for w in workers],
        "chunks_per_worker": [w.committed_chunks for w in workers],
        "duplicate_commits": 0,
        "wall_s": shared_s,
    }
    write_record("e36", RECORD)


def test_warm_rerun_overhead_under_5_percent():
    """Fully-warm rerun: StoreBackedCache within 5% of EvaluationCache.

    Both caches are pre-warmed so every point is a memory-tier hit; the
    gate bounds what the durable tier adds to the hot path (nothing —
    the LRU front absorbs it).  Best-of-repeats wall clock.
    """
    values = {encode_point_key(p): 1.0 - 1e-5 * k for k, p in enumerate(POINTS)}

    def fake_evaluate(p):  # never called once warm; cheap if it ever is
        return values[encode_point_key(p)]

    memory = EvaluationCache()
    evaluate_batch(fake_evaluate, POINTS, cache=memory)

    with CampaignStore(":memory:") as store:
        durable = StoreBackedCache(store, model="warm-bench")
        evaluate_batch(fake_evaluate, POINTS, cache=durable)
        durable.warm()

        def best_of(cache, repeats=25):
            best = float("inf")
            result = None
            for _ in range(repeats):
                start = time.perf_counter()
                result = evaluate_batch(fake_evaluate, POINTS, cache=cache)
                best = min(best, time.perf_counter() - start)
            return result, best

        mem_batch, mem_s = best_of(memory)
        store_batch, store_s = best_of(durable)

    assert mem_batch.stats.cache_hits == N_POINTS
    assert store_batch.stats.cache_hits == N_POINTS
    assert store_batch.outputs.tobytes() == mem_batch.outputs.tobytes()
    overhead = store_s / mem_s - 1.0

    print_table(
        f"E36c: fully-warm {N_POINTS}-point rerun, memory vs store-backed cache",
        ["cache", "wall s", "points/s", "overhead %"],
        [
            ("EvaluationCache", mem_s, N_POINTS / mem_s, 0.0),
            ("StoreBackedCache", store_s, N_POINTS / store_s, 100.0 * overhead),
        ],
    )
    RECORD["warm_rerun"] = {
        "points": N_POINTS,
        "memory_cache_s": mem_s,
        "store_cache_s": store_s,
        "overhead_fraction": overhead,
    }
    write_record("e36", RECORD)
    assert overhead <= 0.05, f"store-tier warm overhead {overhead:.1%} > 5%"
