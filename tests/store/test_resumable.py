"""ResumableCampaign, resume_campaign, run_campaign(store=...), StoreBackedCache."""

import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import repro
from repro.engine import (
    EngineOptions,
    GridCampaign,
    PointsCampaign,
    ProcessExecutor,
    resolve_executor,
    run_campaign,
)
from repro.exceptions import ModelDefinitionError
from repro.robust import FaultInjector, FaultPolicy
from repro.store import (
    CampaignStore,
    ResumableCampaign,
    StoreBackedCache,
    campaign_id_for,
    resume_campaign,
)
from repro.store import resumable
from tests.engine.test_executors import _alive


def square(p):
    return p["x"] ** 2


def worker_pid(p):
    """Module-level evaluator answering with the pid that evaluated it."""
    return float(os.getpid())


class PidLog:
    """Picklable ``square`` that appends ``x pid`` lines to a file."""

    def __init__(self, path):
        self.path = path

    def __call__(self, p):
        with open(self.path, "a") as handle:
            handle.write(f"{p['x']!r} {os.getpid()}\n")
        return square(p)


class ShipOnceOffset:
    """A stored ``__ship_once__`` evaluator: installed by the pool initializer."""

    __ship_once__ = True

    def __init__(self, offset):
        self.offset = offset
        self.__store_name__ = f"offset{offset}"

    def __call__(self, p):
        return p["x"] + self.offset


POINTS = [{"x": float(x)} for x in range(10)]


@pytest.fixture()
def store():
    with CampaignStore(":memory:") as s:
        yield s


class TestFreshRun:
    def test_outputs_match_direct_evaluation(self, store):
        result = ResumableCampaign(square, POINTS, store, model="sq", chunk_size=3).run()
        assert result.outputs.tolist() == [square(p) for p in POINTS]
        assert not result.errors

    def test_grid_spec_matches_plain_run_campaign(self, store):
        spec = GridCampaign({"x": [0.0, 1.0, 2.0], "y": [5.0, 6.0]})
        plain = run_campaign(lambda p: p["x"] + p["y"], spec)
        durable = ResumableCampaign(
            lambda p: p["x"] + p["y"], spec, store, model="add", chunk_size=2
        ).run()
        assert durable.outputs.tobytes() == plain.outputs.tobytes()

    def test_validation(self, store):
        with pytest.raises(ModelDefinitionError, match="chunk_size"):
            ResumableCampaign(square, POINTS, store, model="sq", chunk_size=0)
        with pytest.raises(ModelDefinitionError, match="lease_ttl"):
            ResumableCampaign(square, POINTS, store, model="sq", lease_ttl=0.0)
        with pytest.raises(ModelDefinitionError, match="neither"):
            ResumableCampaign(None, POINTS, store)

    def test_campaign_id_is_deterministic(self, store):
        c1 = ResumableCampaign(square, POINTS, store, model="sq", chunk_size=3)
        c1.run()
        expected = campaign_id_for(
            "sq", [k for k in store.campaign_points(c1.campaign_id)], chunk_size=3
        )
        assert c1.campaign_id == expected


class TestResume:
    def test_interrupted_run_resumes_where_it_stopped(self, store):
        calls = {"n": 0}

        def counted(p):
            calls["n"] += 1
            return square(p)

        first = ResumableCampaign(counted, POINTS, store, model="sq", chunk_size=3)
        partial = first.run(max_chunks=2, wait=False)
        assert calls["n"] == 6
        assert not first.complete
        assert np.isnan(partial.outputs).sum() == 4  # unclaimed tail

        second = ResumableCampaign(counted, POINTS, store, model="sq", chunk_size=3)
        result = second.run()
        assert second.complete
        assert calls["n"] == 10  # only the remaining 4 points were evaluated
        assert second.evaluated_points == 4
        assert second.skipped_points == 6
        serial = np.array([square(p) for p in POINTS])
        assert result.outputs.tobytes() == serial.tobytes()

    def test_should_stop_finishes_cleanly_between_chunks(self, store):
        stops = iter([False, True])
        campaign = ResumableCampaign(square, POINTS, store, model="sq", chunk_size=3)
        campaign.run(should_stop=lambda: next(stops))
        assert campaign.committed_chunks == 1
        assert not campaign.complete

    def test_resume_campaign_needs_only_the_store(self, store):
        """A fresh host resumes from the durable record alone: the
        evaluator is resolved from the stored model name."""
        declared = ResumableCampaign(
            None,
            POINTS,
            store,
            model="tests.store.crash_model:evaluate",
            chunk_size=4,
        )
        declared.run(max_chunks=1, wait=False)
        result = resume_campaign(store, declared.campaign_id)
        from tests.store.crash_model import evaluate

        assert result.outputs.tolist() == [evaluate(p) for p in POINTS]
        assert result.campaign.complete
        assert result.campaign.evaluated_points == 6

    def test_resume_campaign_unknown_id(self, store):
        from repro.exceptions import SolverError

        with pytest.raises(SolverError, match="unknown campaign"):
            resume_campaign(store, "nope")


class TestRounds:
    """The drain claims one store chunk per executor worker per round and
    evaluates the round in one batch, one whole chunk per worker."""

    @pytest.fixture()
    def batches(self, monkeypatch):
        calls = []
        real = resumable.evaluate_batch

        def recording(evaluate, assignments, options=None):
            calls.append((len(assignments), options.chunk_size))
            return real(evaluate, assignments, options=options)

        monkeypatch.setattr(resumable, "evaluate_batch", recording)
        return calls

    @pytest.mark.parametrize(
        "n_jobs, expected", [(2, [(50, 25)] * 3), (1, [(25, 25)] * 6)]
    )
    def test_one_batch_per_round(self, store, batches, n_jobs, expected):
        points = [{"x": float(x)} for x in range(150)]  # 6 chunks of 25
        executor = "process" if n_jobs > 1 else None
        result = run_campaign(
            worker_pid, PointsCampaign(points), store=store, executor=executor, n_jobs=n_jobs
        )
        assert batches == expected
        (campaign_id,) = store.campaign_ids()
        assert all(state["completed"] for state in store.chunk_states(campaign_id))
        # each store chunk ran whole, in one process
        for lo in range(0, 150, 25):
            assert len(set(result.outputs[lo : lo + 25].tolist())) == 1

    def test_max_chunks_caps_the_last_round(self, store, batches):
        points = [{"x": float(x)} for x in range(20)]  # 10 chunks of 2
        campaign = ResumableCampaign(
            square, points, store, model="sq", chunk_size=2,
            options=EngineOptions(executor="thread", n_jobs=2),
        )
        partial = campaign.run(max_chunks=3, wait=False)
        assert campaign.committed_chunks == 3
        assert batches == [(4, 2), (2, 2)]
        assert np.isnan(partial.outputs).sum() == 14
        states = store.chunk_states(campaign.campaign_id)
        assert [s["completed"] for s in states] == [True] * 3 + [False] * 7

    def test_should_stop_is_polled_between_rounds(self, store, batches):
        stops = iter([False, True])
        campaign = ResumableCampaign(
            square, POINTS, store, model="sq", chunk_size=3,
            options=EngineOptions(executor="thread", n_jobs=2),
        )
        campaign.run(should_stop=lambda: next(stops))
        # the one round that ran committed both of its chunks
        assert campaign.committed_chunks == 2
        assert batches == [(6, 3)]
        assert not campaign.complete

    def test_explicit_engine_chunk_size_is_kept(self, store, batches):
        campaign = ResumableCampaign(
            square, POINTS, store, model="sq", chunk_size=3,
            options=EngineOptions(executor="thread", n_jobs=2, chunk_size=1),
        )
        assert campaign.run().outputs.tolist() == [square(p) for p in POINTS]
        assert batches == [(6, 1), (4, 1)]

    def test_fail_fast_commits_no_chunk_of_its_round(self, store):
        def fails_on_seven(p):
            if p["x"] == 7.0:
                raise ValueError("boom")
            return square(p)

        campaign = ResumableCampaign(
            fails_on_seven, POINTS, store, model="sq", chunk_size=3,
            options=EngineOptions(executor="thread", n_jobs=2),
        )
        with pytest.raises(ValueError, match="boom"):
            campaign.run()
        # round 0 (chunks 0, 1) committed; round 1 (chunks 2, 3) holds x=7
        states = store.chunk_states(campaign.campaign_id)
        assert [s["completed"] for s in states] == [True, True, False, False]
        assert store.counts("sq")["ok"] == 6


class TestFailureRedispatch:
    def test_stored_failures_are_retried_and_overwritten(self, store):
        attempt = {"broken": True}

        def flaky(p):
            if attempt["broken"] and p["x"] >= 6.0:
                raise ValueError("transient outage")
            return square(p)

        policy = FaultPolicy(on_error="skip")
        first = ResumableCampaign(
            flaky, POINTS, store, model="sq", chunk_size=3,
            options=EngineOptions(policy=policy),
        )
        r1 = first.run()
        assert first.complete
        assert len(r1.errors) == 4  # x = 6..9 failed but the campaign drained
        assert len(store.failures("sq")) == 4

        attempt["broken"] = False  # the outage ends
        second = ResumableCampaign(
            flaky, POINTS, store, model="sq", chunk_size=3,
            options=EngineOptions(policy=policy),
        )
        r2 = second.run()
        assert not r2.errors
        assert store.failures("sq") == []
        # only the reopened chunks re-ran: points 0..5 were never touched
        assert second.evaluated_points == 4
        serial = np.array([square(p) for p in POINTS])
        assert r2.outputs.tobytes() == serial.tobytes()

    def test_retry_failures_false_leaves_errors_in_place(self, store):
        def broken(p):
            raise ValueError("down")

        policy = FaultPolicy(on_error="skip")
        ResumableCampaign(
            broken, POINTS[:4], store, model="sq", chunk_size=2,
            options=EngineOptions(policy=policy),
        ).run()
        campaign = ResumableCampaign(
            square, POINTS[:4], store, model="sq", chunk_size=2, retry_failures=False
        )
        result = campaign.run()
        assert campaign.evaluated_points == 0
        assert len(result.errors) == 4


class TestRunCampaignRouting:
    def test_store_path_is_bit_identical_to_in_memory(self, tmp_path):
        spec = GridCampaign({"x": [float(x) for x in range(8)]})
        plain = run_campaign(square, spec)
        path = str(tmp_path / "c.sqlite")
        durable = run_campaign(square, spec, store=path, chunk_size=3)
        assert durable.outputs.tobytes() == plain.outputs.tobytes()
        assert durable.stats.executor == "store"
        # warm rerun: everything served from the store file
        warm = run_campaign(square, spec, store=path, chunk_size=3)
        assert warm.outputs.tobytes() == plain.outputs.tobytes()
        assert warm.stats.cache_hits == 8
        assert warm.stats.cache_misses == 0

    def test_open_store_instance_is_not_closed(self, store):
        spec = PointsCampaign(POINTS[:4])
        run_campaign(square, spec, store=store, chunk_size=2)
        assert store.counts()["ok"] == 4  # still open and queryable

    def test_resume_false_records_but_reevaluates(self, store):
        calls = {"n": 0}

        def counted(p):
            calls["n"] += 1
            return square(p)

        counted.__store_name__ = "sq"
        spec = PointsCampaign(POINTS[:4])
        run_campaign(counted, spec, store=store)
        assert calls["n"] == 4
        rerun = run_campaign(counted, spec, store=store, resume=False)
        assert calls["n"] == 8  # evaluated fresh despite stored rows
        assert store.counts("sq")["ok"] == 4
        assert rerun.outputs.tolist() == [square(p) for p in POINTS[:4]]

    def test_store_must_be_path_or_campaign_store(self):
        from repro.exceptions import ModelDefinitionError

        spec = PointsCampaign(POINTS[:2])
        with pytest.raises(ModelDefinitionError, match="path or a repro.store"):
            run_campaign(square, spec, store=123)

    def test_store_accepts_pathlike(self, tmp_path):
        spec = PointsCampaign(POINTS[:2])
        result = run_campaign(square, spec, store=tmp_path / "p.sqlite")
        assert result.outputs.tolist() == [square(p) for p in POINTS[:2]]


class TestCampaignPool:
    """Named campaigns share one warm pool per process; a caller's
    executor instance keeps its own."""

    def test_one_pool_per_campaign(self, store, monkeypatch):
        points = [{"x": float(x)} for x in range(150)]  # 6 chunks of 25
        first = run_campaign(
            worker_pid, PointsCampaign(points), store=store, executor="process", n_jobs=2
        )
        (campaign_id,) = store.campaign_ids()
        assert len(store.chunk_states(campaign_id)) == 6
        workers = {float(pid) for pid in resolve_executor(2, "process")._pool._processes}
        assert len(workers) == 2 and float(os.getpid()) not in workers
        assert set(first.outputs.tolist()) <= workers

        def no_pool(*args, **kwargs):
            raise AssertionError("a second named campaign forked a pool")

        monkeypatch.setattr(ProcessExecutor, "_make_pool", no_pool)
        more = [{"x": float(x)} for x in range(150, 300)]
        second = run_campaign(
            worker_pid, PointsCampaign(more), store=store, executor="process", n_jobs=2
        )
        # the second campaign ran in the same, still warm, workers
        assert set(second.outputs.tolist()) <= workers

    def test_resume_leg_never_forks(self, store, monkeypatch):
        spec = PointsCampaign(POINTS)
        run_campaign(square, spec, store=store, executor="process", n_jobs=2, chunk_size=3)

        def no_pool(*args, **kwargs):
            raise AssertionError("the resume leg forked a pool")

        monkeypatch.setattr(ProcessExecutor, "_make_pool", no_pool)
        warm = run_campaign(square, spec, store=store, executor="process", n_jobs=2, chunk_size=3)
        assert warm.outputs.tolist() == [square(p) for p in POINTS]
        assert warm.stats.cache_misses == 0

    def test_worker_crash_mid_campaign_recovers(self, store, tmp_path):
        log = str(tmp_path / "pids.log")
        injector = FaultInjector(PidLog(log), mode="crash", rate=0.15, seed=2, fail_attempts=1)
        candidates = [{"x": float(x)} for x in range(200)]
        crashing = [p for p in candidates if injector.selects(p)]
        clean = [p for p in candidates if not injector.selects(p)]
        # 6 chunks of 4, drained in rounds of 2 (one chunk per worker):
        # only chunk 2 holds a point that kills its worker
        points = clean[:8] + crashing[:1] + clean[8:23]
        result = ResumableCampaign(
            injector,
            points,
            store,
            model="crashy",
            chunk_size=4,
            options=EngineOptions(
                executor="process",
                n_jobs=2,
                policy=FaultPolicy(on_error="retry", max_retries=1, recover_broken_pool=True),
            ),
        ).run()
        serial = np.array([square(p) for p in points])
        assert result.outputs.tobytes() == serial.tobytes()
        assert result.stats.pool_recoveries >= 1
        assert result.stats.n_retries >= 1
        assert result.stats.executor == "store"
        with open(log) as handle:
            pid_of = {float(x): int(pid) for x, pid in (line.split() for line in handle)}
        before = {pid_of[p["x"]] for p in points[:8]}  # round 0: chunks 0, 1
        after = {pid_of[p["x"]] for p in points[16:]}  # round 2: chunks 4, 5
        # chunk 3 shares round 1 with the crash, so a pre-crash worker may
        # have run it; the rounds after the crash ran in fresh workers,
        # not in the parent
        assert os.getpid() not in after
        assert not before & after
        assert len(after) <= 2

    def test_caller_held_executor_spans_campaigns(self, tmp_path):
        first = PointsCampaign([{"x": float(x)} for x in range(50)])
        second = PointsCampaign([{"x": float(x)} for x in range(50, 100)])
        with ProcessExecutor(2) as executor:
            a = run_campaign(worker_pid, first, store=str(tmp_path / "a.sqlite"), executor=executor)
            b = run_campaign(worker_pid, second, store=str(tmp_path / "b.sqlite"), executor=executor)
            # both campaigns ran in the caller's two workers
            pids = {int(pid) for pid in set(a.outputs.tolist()) | set(b.outputs.tolist())}
            assert len(pids) <= 2 and os.getpid() not in pids
            values, _, _ = executor.run(square, POINTS)
            assert values == [square(p) for p in POINTS]
            assert all(_alive(pid) for pid in pids)
        # the caller's instance keeps today's lifetime: its workers end with its `with`
        assert not any(_alive(pid) for pid in pids)

    def test_process_that_ran_a_named_campaign_exits_without_workers(self, tmp_path):
        script = tmp_path / "named.py"
        script.write_text(
            textwrap.dedent(
                """
                import atexit, os, sys

                WORKERS = []

                def report():
                    alive = [pid for pid in WORKERS if os.path.exists(f"/proc/{pid}")]
                    print("alive at exit:", alive, flush=True)

                # registered before the library's exit hook, so it runs after it
                atexit.register(report)

                from repro.engine import PointsCampaign, run_campaign

                def worker_pid(point):
                    return float(os.getpid())

                points = [{"x": float(k)} for k in range(60)]
                result = run_campaign(
                    worker_pid, PointsCampaign(points), store=sys.argv[1],
                    executor="process", n_jobs=2,
                )
                WORKERS.extend(sorted({int(pid) for pid in result.outputs.tolist()}))
                print(" ".join(map(str, WORKERS)), flush=True)
                """
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "named.sqlite")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        first, last = done.stdout.strip().splitlines()
        pids = [int(pid) for pid in first.split()]
        assert pids and os.getpid() not in pids
        assert last == "alive at exit: []"
        # gone when the process is, not later by the orphan watchdog
        assert not any(_alive(pid) for pid in pids)

    def test_threads_with_different_ship_once_evaluators(self, tmp_path):
        points = [{"x": float(x)} for x in range(40)]
        errors = []

        def drive(offset):
            evaluator = ShipOnceOffset(offset)
            try:
                for k in range(3):
                    result = run_campaign(
                        evaluator,
                        PointsCampaign(points),
                        store=str(tmp_path / f"offset{offset}-{k}.sqlite"),
                        executor="process",
                        n_jobs=2,
                        chunk_size=8,
                    )
                    assert result.outputs.tolist() == [p["x"] + offset for p in points]
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(offset,)) for offset in (1.0, 2.0)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestStoreBackedCache:
    def test_survives_the_memory_tier(self, store):
        calls = {"n": 0}

        def counted(p):
            calls["n"] += 1
            return square(p)

        cache = StoreBackedCache(store, model="sq")
        wrapped = cache.wrap(counted)
        assert wrapped({"x": 3.0}) == 9.0
        cache.clear()  # simulate a process restart: memory tier gone
        assert wrapped({"x": 3.0}) == 9.0
        assert calls["n"] == 1
        assert cache.store_hits == 1

    def test_stored_failure_reads_as_a_miss(self, store):
        from repro.robust import ErrorRecord

        store.record_failure(
            "sq",
            {"x": 3.0},
            ErrorRecord(index=0, error_type="ValueError", message="x", attempts=1),
        )
        cache = StoreBackedCache(store, model="sq")
        assert {"x": 3.0} not in cache
        wrapped = cache.wrap(square)
        assert wrapped({"x": 3.0}) == 9.0  # re-evaluated...
        assert store.lookup("sq", {"x": 3.0}).ok  # ...and healed durably

    def test_read_only_mode_never_writes(self, store):
        cache = StoreBackedCache(store, model="sq", write_through=False)
        cache.wrap(square)({"x": 2.0})
        assert store.lookup("sq", {"x": 2.0}) is None

    def test_warm_preloads_memory(self, store):
        for p in POINTS[:5]:
            store.record_success("sq", p, square(p))
        cache = StoreBackedCache(store, model="sq")
        assert cache.warm() == 5
        assert len(cache) == 5
        assert cache.warm(limit=2) == 2

    def test_engine_integration(self, store):
        cache = StoreBackedCache(store, model="sq")
        spec = PointsCampaign(POINTS[:6])
        run_campaign(square, spec, cache=cache)
        assert store.counts("sq")["ok"] == 6
        fresh = StoreBackedCache(store, model="sq")
        rerun = run_campaign(square, spec, cache=fresh)
        assert fresh.store_hits == 6
        assert rerun.stats.cache_hits == 6


class TestPointsCampaign:
    def test_round_trip(self):
        spec = PointsCampaign(POINTS[:3])
        assert spec.assignments() == POINTS[:3]
        assert len(spec.assignments()) == 3

    def test_rejects_empty(self):
        with pytest.raises(ModelDefinitionError):
            PointsCampaign([])
